package filter

import "math"

// The package's own test helpers, for its external tests (package
// filter_test), which solve through hier.Solve — a package filter cannot
// import.
var (
	ChainProblem   = chainProblem
	PerturbedChain = perturbedChain
	RandChain      = randChain
	SameBits       = sameBits
	PoisonUpper    = poisonUpper
	UpperPoisoned  = upperPoisoned
)

// PoisonScratch leases u's workspace and fills the scratch a batch reads
// with NaN.
func PoisonScratch(u *Updater) {
	ws := u.scratch()
	ws.aBuf = append(ws.aBuf[:0], math.NaN(), math.NaN(), math.NaN())
	ws.dx = append(ws.dx[:0], math.NaN())
}

// HoldsWorkspace reports whether u has a workspace leased.
func HoldsWorkspace(u *Updater) bool { return u.ws != nil }
