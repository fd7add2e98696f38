// Command paperbench regenerates every table and figure of the paper's
// evaluation:
//
//	table1  — flat vs hierarchical run time per helix length (Table 1 / Figure 5)
//	table2  — per-constraint time vs node size × batch dimension (Table 2 / Figure 6)
//	eq1     — the constrained work-estimation regression (Equation 1)
//	table3  — Helix on the DASH model, NP = 1..32 (Table 3 / Figure 7)
//	table4  — ribo30S on the DASH model (Table 4 / Figure 8)
//	table5  — Helix on the Challenge model (Table 5 / Figure 9)
//	table6  — ribo30S on the Challenge model (Table 6 / Figure 10)
//	combine — §4.1 analysis: constraint-partition combination overhead
//	convergence — §5 study: constraint ordering vs cycles to convergence
//	figures — write the Figure 5–10 data series as CSV files (-csv dir)
//	timeline — virtual-time execution chart showing the power-of-two dip
//	memory — §5 memory-behaviour comparison of the two organizations
//	treestats — §3.1 constraint/work distribution over the hierarchy
//	trees   — the Figure 2 / Figure 4 decomposition diagrams (as outlines)
//	all     — everything above except figures
//
// Real-kernel experiments (table1, table2, eq1, combine) are scaled down by
// default so the suite completes in about a minute; -full runs them at
// paper scale. The processor-sweep tables run on the calibrated
// virtual-time machine models and are always full scale. Paper values are
// printed alongside for comparison. Machine-readable performance numbers
// are not produced here: the benchmark ladder (go run ./bench) owns them.
package main

import (
	"flag"
	"fmt"
	"os"
)

type config struct {
	full   bool
	seed   int64
	csvDir string
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.full, "full", false, "run real-kernel experiments at paper scale")
	flag.Int64Var(&cfg.seed, "seed", 1996, "ribosome generator seed")
	flag.StringVar(&cfg.csvDir, "csv", "figures", "output directory for the figures experiment")
	flag.Parse()

	exps := flag.Args()
	if len(exps) == 0 {
		exps = []string{"all"}
	}
	for _, e := range exps {
		if err := run(e, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
	}
}

func run(exp string, cfg config) error {
	switch exp {
	case "table1":
		return table1(cfg)
	case "table2":
		return table2(cfg)
	case "eq1":
		return eq1(cfg)
	case "table3":
		return sweep(cfg, "helix", "DASH")
	case "table4":
		return sweep(cfg, "ribo", "DASH")
	case "table5":
		return sweep(cfg, "helix", "Challenge")
	case "table6":
		return sweep(cfg, "ribo", "Challenge")
	case "combine":
		return combine(cfg)
	case "convergence":
		return convergence(cfg)
	case "trees":
		return trees(cfg)
	case "figures":
		return figures(cfg, cfg.csvDir)
	case "timeline":
		return timeline(cfg)
	case "memory":
		return memory(cfg)
	case "treestats":
		return treestats(cfg)
	case "all":
		for _, e := range []string{
			"table1", "table2", "eq1",
			"table3", "table4", "table5", "table6",
			"combine", "convergence", "trees", "timeline", "memory", "treestats",
		} {
			if err := run(e, cfg); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println("==============================================================")
	fmt.Println(title)
	fmt.Println("==============================================================")
}
