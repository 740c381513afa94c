// Golden corpus for the units pass: bare magnitudes taking sim.Time
// type through parameters, conversions, declarations and arithmetic.
package corpus

import "fastsocket/internal/sim"

func Wait(d sim.Time) sim.Time { return d }

func Calls() sim.Time {
	total := Wait(5000) // want "bare integer 5000 in a sim.Time position"
	total += Wait(3 * sim.Microsecond)
	total += Wait(500) // under the 1us threshold: allowed
	return total
}

// Waived carries an audited waiver for a raw nanosecond value.
func Waived() sim.Time {
	//fsvet:ignore units corpus: calibrated raw nanosecond value
	return Wait(123456)
}

func Convert() sim.Time {
	return sim.Time(250000) // want "bare integer 250000 in a sim.Time position"
}

func Declare() sim.Time {
	var d sim.Time = 30000 // want "bare integer 30000 in a sim.Time position"
	d += 2 * sim.Millisecond
	return d
}

// costTable mirrors the calibrated-table exemption: composite literals
// are where named values are defined.
var costTable = map[string]sim.Time{
	"syscall": 180000,
}

func Table() sim.Time { return costTable["syscall"] }
