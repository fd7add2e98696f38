package vm

import (
	"phmse/internal/hier"
	"phmse/internal/machine"
)

// dynFinish returns the completion time of the subtree under dynamic
// balancing with p processors, accumulating class busy time.
func dynFinish(n *hier.Node, mach *machine.Machine, p int, res *Result) float64 {
	childrenTime := 0.0
	if len(n.Children) > 0 {
		sumSerial := 0.0
		maxPath := 0.0
		for _, c := range n.Children {
			sumSerial += serialWork(c, mach, res)
			// Critical path if the child ran alone on the full team; do not
			// accumulate busy again (serialWork already did).
			var scratch Result
			if path := dynFinish(c, mach, p, &scratch); path > maxPath {
				maxPath = path
			}
		}
		childrenTime = sumSerial / float64(p)
		if maxPath > childrenTime {
			childrenTime = maxPath
		}
		// One global regrouping synchronization per level.
		childrenTime += mach.SyncSeconds * float64(p)
	}
	t := childrenTime
	for _, op := range nodeOps(n) {
		wall := mach.Wall(op, p)
		t += wall
		res.ClassBusy[op.Class] += wall * float64(p)
		res.Ops++
	}
	return t
}

// serialWork returns the subtree's total single-processor work and charges
// it to the per-class busy accounting.
func serialWork(n *hier.Node, mach *machine.Machine, res *Result) float64 {
	total := 0.0
	n.Walk(func(m *hier.Node) {
		for _, op := range nodeOps(m) {
			w := mach.Wall(op, 1)
			total += w
			res.ClassBusy[op.Class] += w
			res.Ops++
		}
	})
	return total
}
