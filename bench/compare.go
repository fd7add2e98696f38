package main

import (
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the compare table.
type comparison struct {
	Workload, Metric, Unit string
	Old, New               float64
	Delta                  float64 // (new − old) / old, signed as measured
	Bound                  float64
	OldSpread, NewSpread   float64
	Verdict                string
}

// compareMetric judges new against old for a metric where `better` names
// the good direction. The change counts as worse when the median moved the
// wrong way by more than the bound, better when it moved the right way by
// more than the bound, and same otherwise — unless either side's own
// run-to-run spread exceeds the bound, in which case the bound cannot
// resolve the difference: unresolved, except when every run of one side
// beats every run of the other.
func compareMetric(old, cur metricResult) (delta float64, verdict string) {
	delta = ratio(cur.Value-old.Value, old.Value)
	worsening := delta
	if old.Better == higher {
		worsening = -delta
	}
	switch {
	case worsening > old.Bound:
		verdict = verdictWorse
	case worsening < -old.Bound:
		verdict = verdictBetter
	default:
		verdict = verdictSame
	}
	if spread(old.Values) > old.Bound || spread(cur.Values) > old.Bound {
		switch {
		case separated(cur.Values, old.Values, old.Better):
			verdict = verdictBetter
		case separated(old.Values, cur.Values, old.Better):
			verdict = verdictWorse
		default:
			verdict = verdictUnresolved
		}
	}
	return delta, verdict
}

// separated reports whether every value of a is better than every value
// of b.
func separated(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if better == higher {
		return sa[0] > sb[len(sb)-1]
	}
	return sa[len(sa)-1] < sb[0]
}

// compareResults lines up every workload × end-to-end metric present in
// both documents, each workload in its own rows.
func compareResults(old, cur *result) ([]comparison, error) {
	var rows []comparison
	for _, ow := range old.Workloads {
		var cw *workloadResult
		for i := range cur.Workloads {
			if cur.Workloads[i].Name == ow.Name {
				cw = &cur.Workloads[i]
			}
		}
		if cw == nil {
			return nil, fmt.Errorf("workload %s is missing from the new result", ow.Name)
		}
		for _, spec := range endToEnd {
			om, ok1 := ow.Metrics[spec.Name]
			cm, ok2 := cw.Metrics[spec.Name]
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("%s: metric %s is missing from one result", ow.Name, spec.Name)
			}
			delta, verdict := compareMetric(om, cm)
			rows = append(rows, comparison{Workload: ow.Name, Metric: spec.Name, Unit: om.Unit, Old: om.Value, New: cm.Value,
				Delta: delta, Bound: om.Bound, OldSpread: spread(om.Values), NewSpread: spread(cm.Values), Verdict: verdict})
		}
		// failed_share has no tolerance: any rise fails.
		oldShare, newShare := ratio(float64(ow.Failed), float64(ow.Attempted)), ratio(float64(cw.Failed), float64(cw.Attempted))
		verdict := verdictSame
		if newShare > oldShare {
			verdict = verdictWorse
		} else if newShare < oldShare {
			verdict = verdictBetter
		}
		rows = append(rows, comparison{Workload: ow.Name, Metric: "failed_share", Unit: "ratio", Old: oldShare, New: newShare,
			Delta: newShare - oldShare, Verdict: verdict})
	}
	return rows, nil
}

func printComparison(out io.Writer, rows []comparison) {
	fmt.Fprintf(out, "%-20s %-14s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "delta", "bound", "old iqr", "new iqr", "verdict")
	for _, r := range rows {
		if r.Metric == "failed_share" {
			// An absolute difference of two shares: there is no base to
			// take a ratio of when the old share is 0.
			fmt.Fprintf(out, "%-20s %-14s %14.6g %14.6g %+9.6f %7s %8s %8s  %s\n",
				r.Workload, r.Metric, r.Old, r.New, r.Delta, "0", "-", "-", r.Verdict)
			continue
		}
		fmt.Fprintf(out, "%-20s %-14s %11.6g %-2s %11.6g %-2s %+8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.Unit, r.New, r.Unit, r.Delta*100, r.Bound*100, r.OldSpread*100, r.NewSpread*100, r.Verdict)
	}
	fmt.Fprintln(out, "delta is (new − old) / old median; iqr is (q3 − q1) / median over each file's own runs")
}

// compareMain implements `bench compare old.json new.json`: exit 1 on any
// worse row, which includes any rise in failed_share.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
		return 2
	}
	old, err := readResult(args[0])
	if err == nil && old.Traced {
		err = fmt.Errorf("%s is a traced run; end-to-end metrics are compared from untraced runs", args[0])
	}
	var cur *result
	if err == nil {
		cur, err = readResult(args[1])
	}
	if err == nil && cur.Traced {
		err = fmt.Errorf("%s is a traced run; end-to-end metrics are compared from untraced runs", args[1])
	}
	var rows []comparison
	if err == nil {
		rows, err = compareResults(old, cur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if old.Host != cur.Host {
		fmt.Fprintf(os.Stdout, "note: hosts or revisions differ\n  old: %+v\n  new: %+v\n", old.Host, cur.Host)
	}
	printComparison(os.Stdout, rows)
	for _, r := range rows {
		if r.Verdict == verdictWorse {
			return 1
		}
	}
	return 0
}
