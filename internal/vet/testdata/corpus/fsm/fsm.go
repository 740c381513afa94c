// Package corpus (mounted as fastsocket/internal/kernel/vetcorpus_fsm)
// exercises every finding kind of the fsm pass against the committed
// corpus machine (fsmspec.go's corpusSpec): CState with states IDLE,
// RUN, DONE, GHOST; birth IDLE; transition method Transition; legal
// edges IDLE->RUN, RUN->DONE, DONE->IDLE (defensive), and DONE->GHOST —
// the last deliberately unimplemented so the missing-site graph
// finding fires.
package corpus

// CState is the corpus state type named by corpusSpec.
type CState int

// The corpus machine's states, value-indexed like tcp.State.
const (
	IDLE CState = iota
	RUN
	DONE
	GHOST
)

// CStates is a set of states, bit 1<<s for state s.
type CStates uint8

// CSock owns a CState field, which makes it an fsm owner struct.
type CSock struct {
	State CState
	N     int
}

// NewCSock constructs a fresh owner in the birth state.
func NewCSock() *CSock { return &CSock{} }

// BadBirth constructs an owner in a non-birth state.
func BadBirth() *CSock {
	return &CSock{State: RUN} // want "constructed outside its birth state IDLE"
}

// Transition is the corpus transition method: the one place the state
// field may be stored.
func (c *CSock) Transition(from CStates, to CState) {
	if from&(1<<uint(c.State)) == 0 {
		panic("corpus: undeclared prior")
	}
	c.State = to
}

// Start is a clean spec'd transition.
func Start(c *CSock) { c.Transition(1<<IDLE, RUN) }

// Finish is a clean spec'd transition.
func Finish(c *CSock) { c.Transition(1<<RUN, DONE) }

// Recycle exercises the defensive spec edge DONE -> IDLE.
func Recycle(c *CSock) { c.Transition(1<<DONE, IDLE) }

// Rewind declares RUN -> IDLE, which is not in the spec.
func Rewind(c *CSock) {
	c.Transition(1<<RUN|1<<DONE, IDLE) // want "transition RUN -> IDLE is not in the .*CState spec"
}

// Skip is also unspec'd (IDLE -> DONE) but carries an audited waiver:
// the directive must suppress the finding and must not be reported
// stale.
func Skip(c *CSock) {
	//fsvet:ignore fsm corpus: audited shortcut, present to prove waivers suppress
	c.Transition(1<<IDLE, DONE)
}

// Promote stores the state field directly.
func Promote(c *CSock) {
	next := c.State + 1
	c.State = next // want "state stored outside the transition method Transition"
}

// PromoteVia passes a computed target to the transition method.
func PromoteVia(c *CSock, s CState) {
	c.Transition(1<<RUN, s+1) // want "transition target state is not a constant"
}

// Guess passes a computed prior set to the transition method.
func Guess(c *CSock, prior CStates) {
	c.Transition(prior, DONE) // want "transition prior set is not a constant"
}

func pair() (CState, int) { return DONE, 1 }

// Multi splits a tuple into the state field.
func Multi(c *CSock) {
	c.State, c.N = pair() // want "state stored outside the transition method"
}

// Bump mutates the state arithmetically.
func Bump(c *CSock) {
	c.State++ // want "state stored outside the transition method"
}

// Stale carries a waiver that suppresses nothing this run; it must be
// reported stale. (The trailing want annotation doubles as the audit
// reason, keeping the directive well-formed.)
func Stale(c *CSock) {
	//fsvet:ignore fsm corpus: obsolete waiver left after its site was fixed // want "stale //fsvet:ignore fsm directive"
	c.Transition(1<<RUN, DONE)
}

// Reasonless directive below: protects nothing and is reported as
// malformed (asserted explicitly in vet_test.go — a want comment here
// would become the directive's reason).
//
//fsvet:ignore fsm
func Reasonless(c *CSock) { c.Transition(1<<DONE, IDLE) }

// seed is a package-level owner literal in a non-birth state.
var seed = CSock{State: DONE} // want "constructed outside its birth state IDLE"

// BadBirthPositional constructs an owner positionally in a non-birth state.
func BadBirthPositional() CSock {
	return CSock{DONE, 0} // want "constructed outside its birth state IDLE"
}

// Alias takes the state field's address.
func Alias(c *CSock) *CState {
	return &c.State // want "address of the state field taken outside the transition method Transition"
}

// Sweep ranges into the state field.
func Sweep(c *CSock, states []CState) {
	for _, c.State = range states { // want "state stored outside the transition method"
	}
}

// Deferred takes the transition method as a method value.
func Deferred(c *CSock) func(CStates, CState) {
	return c.Transition // want "transition method Transition used as a value"
}

// Expr calls the transition method through a method expression.
func Expr(c *CSock) {
	(*CSock).Transition(c, 1<<IDLE, RUN) // want "transition method Transition used as a value"
}

// Stepper is an interface the owner satisfies.
type Stepper interface{ Transition(CStates, CState) }

// Indirect calls the transition method through an interface.
func Indirect(t Stepper) {
	t.Transition(1<<IDLE, RUN) // want "transition method Transition called through an interface"
}
