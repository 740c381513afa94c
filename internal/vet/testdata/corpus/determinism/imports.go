// Forbidden imports in a restricted package are findings even when
// only package-level declarations use them: no function body names
// the package, so the reach pass alone stays silent.
package corpus

import (
	"math/rand" // want "import \"math/rand\" is forbidden in deterministic simulation packages"
	"sync"      // want "import \"sync\" is forbidden in deterministic simulation packages"
	"time"      // want "import \"time\" is forbidden in deterministic simulation packages"
)

// Deadline is a wall-clock duration declared at package level.
var Deadline time.Duration

var (
	guard  sync.Mutex
	source rand.Source
)
