package filter

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestIterateStops drives the convergence driver through each of its exits
// once with a scripted pass: the RMS trajectory, what the pass reports into
// the diagnostics sink, and when it cancels or fails are all given, so the
// stopping policy is checked on its own, away from any filter arithmetic.
func TestIterateStops(t *testing.T) {
	errPass := errors.New("pass failed")
	pow := func(base float64) func(int) float64 {
		return func(cycle int) float64 { return math.Pow(base, float64(cycle)) }
	}
	one := func(int) float64 { return 1 }
	// quarantineFrom scripts a pass that assimilates observations before
	// the given cycle and from it on has its only batch excluded.
	quarantineFrom := func(from int, reason string) func(*Diagnostics, int) {
		return func(d *Diagnostics, cycle int) {
			if cycle < from {
				d.AddApplied(3)
				d.AddQuarantine("other", 0, cycle, reason) // contained: progress was made
				return
			}
			d.AddQuarantine("n", 2, cycle, reason)
		}
	}
	cases := []struct {
		name      string
		ctl       Control
		rms       func(cycle int) float64
		report    func(d *Diagnostics, cycle int) // default: AddApplied(1)
		cancelAt  int                             // cancel Ctx inside this cycle's pass; -1: before the run
		failAt    int                             // the pass of this cycle returns errPass
		cycles    int
		converged bool
		check     func(t *testing.T, err error)
	}{
		{
			name: "converged", ctl: Control{Tol: 0.5},
			rms:    func(cycle int) float64 { return 1 / float64(cycle) }, // 0.5 is not below Tol, 1/3 is
			cycles: 3, converged: true,
		},
		{name: "max cycles", ctl: Control{MaxCycles: 5}, rms: one, cycles: 5},
		{
			name: "cancelled before cycle 1", rms: one, cancelAt: -1, cycles: 0,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			},
		},
		{
			// The running cycle completes; the next one is never started.
			name: "cancelled mid-run", rms: one, cancelAt: 3, cycles: 3,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			},
		},
		{
			name: "pass error", rms: one, failAt: 2, cycles: 1,
			check: func(t *testing.T, err error) {
				if err != errPass {
					t.Errorf("err = %v, want the pass's own error", err)
				}
			},
		},
		{
			name: "no progress non_finite", rms: one, report: quarantineFrom(2, ReasonNonFinite), cycles: 2,
			check: func(t *testing.T, err error) {
				var nf *NonFinite
				if !errors.As(err, &nf) || nf.Node != "n" || nf.Batch != 2 || nf.Cycle != 2 {
					t.Errorf("err = %#v, want NonFinite{n, 2, cycle 2}", err)
				}
			},
		},
		{
			name: "no progress indefinite", rms: one, report: quarantineFrom(3, ReasonIndefinite), cycles: 3,
			check: func(t *testing.T, err error) {
				var ind *Indefinite
				if !errors.As(err, &ind) || ind.Node != "n" || ind.Batch != 2 || ind.Retries != maxRidgeRetries {
					t.Errorf("err = %#v, want Indefinite{n, 2}", err)
				}
			},
		},
		{
			// 1.2^c has grown for DefaultDivergeAfter cycles at cycle 9, but
			// only ×4.3 over the streak's base; the streak has to compound
			// past DivergeGrowthFactor, which it does at cycle 14.
			name: "watchdog waits for compounded growth", rms: pow(1.2), cycles: 14,
			check: func(t *testing.T, err error) {
				var dv *Diverged
				if !errors.As(err, &dv) || dv.Cycles != 14 || dv.Grew != 13 || len(dv.History) != 14 {
					t.Errorf("err = %#v, want Diverged{14 cycles, grew 13}", err)
				}
			},
		},
		{
			// 49 growing cycles in a row that together gain 5 %.
			name: "gentle upswing", ctl: Control{MaxCycles: 50},
			rms:    func(cycle int) float64 { return 1 + 0.001*float64(cycle) },
			cycles: 50,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelAt < 0 {
				cancel()
			}
			onCycle, passes := 0, 0
			ctl := tc.ctl
			ctl.Ctx = ctx
			ctl.OnCycle = func(cycle int, rms float64) {
				onCycle++
				if cycle != onCycle || rms != tc.rms(cycle) {
					t.Errorf("OnCycle(%d, %g), want (%d, %g)", cycle, rms, onCycle, tc.rms(onCycle))
				}
			}
			ctl = ctl.WithDefaults()
			res, err := ctl.Iterate(func(cycle int) (float64, error) {
				passes++
				if cycle != passes {
					t.Errorf("pass %d ran as cycle %d", passes, cycle)
				}
				if cycle == tc.failAt {
					return 0, errPass
				}
				if cycle == tc.cancelAt {
					cancel()
				}
				if tc.report != nil {
					tc.report(ctl.diag, cycle)
				} else {
					ctl.diag.AddApplied(1)
				}
				return tc.rms(cycle), nil
			})
			if tc.check == nil && err != nil {
				t.Errorf("err = %v, want nil", err)
			} else if tc.check != nil {
				tc.check(t, err)
			}
			if res.Cycles != tc.cycles || onCycle != tc.cycles || res.Converged != tc.converged {
				t.Errorf("cycles %d, OnCycle calls %d, converged %v; want %d, %d, %v",
					res.Cycles, onCycle, res.Converged, tc.cycles, tc.cycles, tc.converged)
			}
			if res.Cycles > 0 && res.RMSChange != tc.rms(res.Cycles) {
				t.Errorf("RMSChange = %g, want %g", res.RMSChange, tc.rms(res.Cycles))
			}
			if res.Diag != ctl.diag || len(res.Diag.RMSTrajectory()) != tc.cycles {
				t.Errorf("Result.Diag is not the run's sink with %d trajectory entries", tc.cycles)
			}
		})
	}
}
