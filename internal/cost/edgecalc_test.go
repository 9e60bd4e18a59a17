package cost

import (
	"math/rand"
	"runtime"
	"testing"
)

// randIfaces builds pseudo-random but structurally valid interfaces: per
// axis, a power-of-two slice count and per-device aligned interval starts,
// the way real candidate interfaces look.
func randIfaces(rng *rand.Rand, n, devices, numAxes int) []*Iface {
	out := make([]*Iface, n)
	for i := range out {
		ifc := &Iface{
			NumAxes: numAxes,
			Fwd:     make([]float64, devices*numAxes),
			Bwd:     make([]float64, devices*numAxes),
			Width:   make([]float64, numAxes),
		}
		for ax := 0; ax < numAxes; ax++ {
			slices := 1 << rng.Intn(4)
			w := 1 / float64(slices)
			ifc.Width[ax] = w
			for dev := 0; dev < devices; dev++ {
				ifc.Fwd[dev*numAxes+ax] = float64(rng.Intn(slices)) * w
				ifc.Bwd[dev*numAxes+ax] = float64(rng.Intn(slices)) * w
			}
		}
		out[i] = ifc
	}
	return out
}

// TestEdgeCalcMatchesMeasure pins the table-driven evaluator to the
// reference Measure bit-for-bit on randomized interface sets, including
// unmapped (-1) axis pairings.
func TestEdgeCalcMatchesMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		devices, perNode := 16, 4
		srcAxes, dstAxes := 3, 4
		p := &EdgePlan{
			devices: devices,
			perNode: perNode,
			eb:      2,
			dstFull: 1 << 20,
			srcFull: 1 << 18,
			fwdDst:  []int{0, 1, 2, 3},
			fwdSrc:  []int{0, 2, -1, 1},
			bwdSrc:  []int{0, 1, 2},
			bwdDst:  []int{0, 3, -1},
		}
		srcReps := randIfaces(rng, 25, devices, srcAxes)
		dstReps := randIfaces(rng, 25, devices, dstAxes)
		calc := p.NewCalc(srcReps, dstReps)
		if calc == nil {
			t.Fatalf("trial %d: NewCalc fell back unexpectedly", trial)
		}
		ev := calc.Eval()
		for ri, s := range srcReps {
			for ci, d := range dstReps {
				want := p.Measure(s, d)
				got := ev.MeasureCell(ri, ci)
				if got != want {
					t.Fatalf("trial %d cell (%d,%d): got %+v want %+v", trial, ri, ci, got, want)
				}
			}
		}
	}
}

// tinyBlockPlan is a 3×5-rep edge on 4 devices: small enough that every
// memo of its streaming evaluator starts at a handful of slots.
func tinyBlockPlan() (*EdgePlan, []*Iface, []*Iface) {
	rng := rand.New(rand.NewSource(5))
	p := &EdgePlan{
		devices: 4, perNode: 2, eb: 2, dstFull: 1 << 12, srcFull: 1 << 10,
		fwdDst: []int{0, 1, 2}, fwdSrc: []int{0, 1, -1},
		bwdSrc: []int{0, 1}, bwdDst: []int{1, 0},
	}
	return p, randIfaces(rng, 3, 4, 2), randIfaces(rng, 5, 4, 3)
}

// TestBlockEvalMatchesMeasure pins the streaming row evaluator — the
// production path of the edge-matrix fill — to the reference Measure
// bit-for-bit: on a tiny matrix whose memos start at their smallest size, on
// the two-pair vid-grid path, on a three-pair path, and with the cell memo
// forced off in one direction. It also checks the sizing rule's promise that
// a memo started from its key bound never grows.
func TestBlockEvalMatchesMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	twoPair := &EdgePlan{
		devices: 16, perNode: 4, eb: 2, dstFull: 1 << 20, srcFull: 1 << 18,
		fwdDst: []int{0, 1, 2}, fwdSrc: []int{1, 0, -1},
		bwdSrc: []int{0, 1}, bwdDst: []int{0, 2},
	}
	threePair := &EdgePlan{
		devices: 16, perNode: 4, eb: 2, dstFull: 1 << 20, srcFull: 1 << 18,
		fwdDst: []int{0, 1, 2, 3}, fwdSrc: []int{0, 2, -1, 1},
		bwdSrc: []int{0, 1, 2}, bwdDst: []int{0, 3, 1},
	}
	tiny, tinySrc, tinyDst := tinyBlockPlan()
	cases := []struct {
		name             string
		p                *EdgePlan
		srcReps, dstReps []*Iface
		noCellMemo       bool
	}{
		{"tiny", tiny, tinySrc, tinyDst, false},
		{"two-pair", twoPair, pooledIfaces(rng, 40, 16, 3, 4), pooledIfaces(rng, 60, 16, 3, 4), false},
		{"three-pair", threePair, pooledIfaces(rng, 40, 16, 3, 4), pooledIfaces(rng, 60, 16, 4, 4), false},
		{"no-cell-memo", threePair, pooledIfaces(rng, 30, 16, 3, 4), pooledIfaces(rng, 30, 16, 4, 4), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calc := tc.p.NewCalc(tc.srcReps, tc.dstReps)
			if calc == nil {
				t.Fatal("NewCalc fell back unexpectedly")
			}
			if tc.noCellMemo {
				calc.fwd.cellMemo = false
			}
			be := calc.Block()
			starts := [2]int{len(be.fwd.de.cells.slots), len(be.bwd.de.cells.slots)}
			out := make([]Traffic, len(tc.dstReps))
			for ri, s := range tc.srcReps {
				be.MeasureRow(ri, out)
				for ci, d := range tc.dstReps {
					if want := tc.p.Measure(s, d); out[ci] != want {
						t.Fatalf("cell (%d,%d): got %+v want %+v", ri, ci, out[ci], want)
					}
				}
			}
			for i, ds := range []*dirStream{&be.fwd, &be.bwd} {
				if got := len(ds.de.cells.slots); got != starts[i] {
					t.Errorf("direction %d: cell memo grew from %d to %d slots", i, starts[i], got)
				}
			}
		})
	}
}

// TestCellTabGrowsFromFloor fills a table started at its smallest size past
// several 4× growth rounds and checks every key still reads back its value.
func TestCellTabGrowsFromFloor(t *testing.T) {
	var tab cellTab
	tab.initSize(0)
	floor := len(tab.slots)
	const n = 3000
	for k := uint64(0); k < n; k++ {
		tab.put(k*7919, frac{float64(k), -float64(k)})
	}
	if len(tab.slots) < floor*64 {
		t.Fatalf("table grew only from %d to %d slots", floor, len(tab.slots))
	}
	for k := uint64(0); k < n; k++ {
		if f, ok := tab.get(k * 7919); !ok || f != (frac{float64(k), -float64(k)}) {
			t.Fatalf("key %d: got %+v, %v", k*7919, f, ok)
		}
	}
	if _, ok := tab.get(1); ok {
		t.Fatal("absent key reported present")
	}
}

// TestBlockAllocBound keeps a small edge's streaming evaluator small: its
// memos are sized from the keys the matrix can hold, not from a fixed
// large start.
func TestBlockAllocBound(t *testing.T) {
	p, srcReps, dstReps := tinyBlockPlan()
	calc := p.NewCalc(srcReps, dstReps)
	if calc == nil {
		t.Fatal("NewCalc fell back unexpectedly")
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { _ = calc.Block() })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured runs.
	perOp := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if perOp >= 64<<10 {
		t.Fatalf("Block() allocates %d B per call (%.0f allocs), want < 64 KiB", perOp, allocs)
	}
}

// TestEdgeCalcNoMappedAxes covers the degenerate all-replicated pairing:
// every coverage is 1 and no traffic flows.
func TestEdgeCalcNoMappedAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := &EdgePlan{
		devices: 8, perNode: 4, eb: 2, dstFull: 1024, srcFull: 1024,
		fwdDst: []int{0}, fwdSrc: []int{-1},
		bwdSrc: []int{0}, bwdDst: []int{-1},
	}
	srcReps := randIfaces(rng, 4, 8, 2)
	dstReps := randIfaces(rng, 4, 8, 2)
	calc := p.NewCalc(srcReps, dstReps)
	ev := calc.Eval()
	for ri, s := range srcReps {
		for ci, d := range dstReps {
			want := p.Measure(s, d)
			got := ev.MeasureCell(ri, ci)
			if got != want {
				t.Fatalf("cell (%d,%d): got %+v want %+v", ri, ci, got, want)
			}
		}
	}
}
