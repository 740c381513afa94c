package experiment

// Runner executes n independent sweep jobs and returns when all have
// finished. Each job is one whole simulation: it builds its own
// sim.Loop, kernel, and PRNGs from its own seed and shares no mutable
// state with any other job, so implementations are free to run jobs
// on parallel host workers (internal/sweep does) without perturbing
// any simulated outcome — results are identified by job index, never
// by completion order.
//
// Inside a job, everything remains single-threaded simulation subject
// to fsvet's determinism rules; only the orchestration *between* whole
// runs may be concurrent.
type Runner interface {
	Run(n int, job func(i int))
}

// Serial is the default Runner: jobs execute in index order on the
// calling goroutine, exactly like the pre-Runner sweep loops.
type Serial struct{}

// Run implements Runner.
func (Serial) Run(n int, job func(i int)) {
	for i := 0; i < n; i++ {
		job(i)
	}
}
