// Golden corpus for the reach pass: restricted code reaching a
// forbidden import through a module call chain rather than a direct
// import (which the determinism pass catches).
package corpus

import "fastsocket/vetcorpus/reachutil"

func Stamp() int64 { // want "reaches forbidden package \"time\""
	return reachutil.WallClock()
}

// Sum stays clean: the helper package is not forbidden, only the
// wall-clock chain through it is.
func Sum() int {
	return reachutil.Pure(1, 2)
}
