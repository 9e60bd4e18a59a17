// benchguard compares `go test -bench -benchmem` output against a checked-in
// per-op baseline and fails on regressions beyond a tolerance. It exists so
// the CI perf guard is a versioned, reviewable program instead of a
// shell-and-awk incantation: the baseline file records what the kernels cost
// when it was last regenerated, and any change that makes the scan or
// edge-cell hot paths >25% slower per op, or makes them allocate >10% more
// bytes or objects per op, turns the build red before it merges.
//
// Usage:
//
//	go test -run '^$' -bench 'ScanMinPlus|EdgeCellBlock' -benchmem -cpu 1 -count=5 ./... | benchguard -baseline golden/bench_baseline.json
//	benchguard -baseline golden/bench_baseline.json -update bench_output.txt
//	benchguard -baseline golden/bench_baseline.json -list
//
// The median across repetitions is compared, not the mean: one noisy
// repetition on a shared CI runner must not fail (or excuse) a run. Every
// benchmark named in the baseline must appear in the input with every column
// the baseline gates — a guard that silently stops running a benchmark, or
// loses its B/op column because -benchmem was dropped, is itself a
// regression. Benchmarks in the input but not the baseline are reported and
// otherwise ignored, so adding a new benchmark does not force a baseline
// regeneration.
//
// ns/op baselines are machine-relative: the baseline records the host class
// it was measured on (the CPU line of the benchmark output, plus the CPU
// count and Go version of the machine running benchguard, which is the one
// that just ran the benchmarks), and a comparison on another host says so.
// B/op and allocs/op do not depend on CPU speed, but they do depend on
// GOMAXPROCS: a parallel search allocates per-worker scratch, so more workers
// allocate more bytes. The baseline therefore records the GOMAXPROCS its
// benchmarks ran at (the -N name suffix; none means 1), and a run at another
// value fails instead of being compared. Run the guard with `go test -cpu 1`.
// With GOMAXPROCS pinned the memory gates get a tighter tolerance than ns/op.
// Regenerate with -update (on the same class of machine CI uses) whenever an
// intentional perf change moves a kernel, and commit the new file alongside
// the change that moved it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baselineDoc is the golden/bench_baseline.json schema. Each *_per_op map
// takes the benchmark name (GOMAXPROCS suffix stripped) to its baseline
// median; each tolerance is the allowed median regression in percent.
type baselineDoc struct {
	// Host is the machine class the baseline was measured on.
	Host string `json:"host,omitempty"`
	// GOMAXPROCS the baseline's benchmarks ran at; 0 in a baseline that
	// predates the field, which is then compared at any value.
	GOMAXPROCS         int                `json:"gomaxprocs,omitempty"`
	TolerancePct       float64            `json:"tolerance_pct"`
	NsPerOp            map[string]float64 `json:"ns_per_op"`
	BytesTolerancePct  float64            `json:"bytes_tolerance_pct,omitempty"`
	BytesPerOp         map[string]float64 `json:"bytes_per_op,omitempty"`
	AllocsTolerancePct float64            `json:"allocs_tolerance_pct,omitempty"`
	AllocsPerOp        map[string]float64 `json:"allocs_per_op,omitempty"`
}

// memTolerancePct is the allowed B/op and allocs/op median regression that
// -update writes into a new baseline. Edit the baseline file to change it.
const memTolerancePct = 10

// gate is one per-op column the baseline pins.
type gate struct {
	unit string // the column's unit in `go test -bench` output
	tol  float64
	base map[string]float64
}

func (d *baselineDoc) gates() []gate {
	return []gate{
		{"ns/op", d.TolerancePct, d.NsPerOp},
		{"B/op", d.BytesTolerancePct, d.BytesPerOp},
		{"allocs/op", d.AllocsTolerancePct, d.AllocsPerOp},
	}
}

// benchInput is what one `go test -bench` run reports: the CPU line of its
// header, the GOMAXPROCS its benchmarks ran at and, per benchmark, every
// sample of every per-op column.
type benchInput struct {
	cpu     string
	procs   int
	samples map[string]map[string][]float64 // name -> unit -> samples
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkScanMinPlus-8   32846   36075 ns/op   14744 entries/op   0 B/op   0 allocs/op
//
// capturing the name, the GOMAXPROCS suffix (absent at GOMAXPROCS=1) and the
// "value unit" pairs after the iteration count.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+(.*)$`)

// parseBench collects every per-op sample per benchmark name from r.
func parseBench(r io.Reader) (benchInput, error) {
	in := benchInput{samples: make(map[string]map[string][]float64)}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			in.cpu = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		procs := 1
		if m[2] != "" {
			procs, _ = strconv.Atoi(m[2])
		}
		if in.procs != 0 && in.procs != procs {
			return in, fmt.Errorf("benchguard: input mixes GOMAXPROCS %d and %d (run go test with a single -cpu value)", in.procs, procs)
		}
		in.procs = procs
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return in, fmt.Errorf("benchguard: unpaired value/unit columns in %q", line)
		}
		cols := in.samples[m[1]]
		if cols == nil {
			cols = make(map[string][]float64)
			in.samples[m[1]] = cols
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return in, fmt.Errorf("benchguard: bad %s in %q: %w", fields[i+1], line, err)
			}
			cols[fields[i+1]] = append(cols[fields[i+1]], v)
		}
	}
	return in, sc.Err()
}

// median of a non-empty sample set; for even sizes the lower-middle value,
// which is deterministic and slightly regression-friendly (harder to pass).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// hostClass names the machine this process runs on, given the CPU line of
// the benchmark output it read.
func hostClass(cpu string) string {
	if cpu == "" {
		cpu = "unknown cpu"
	}
	return fmt.Sprintf("%s; %d CPUs; %s", cpu, runtime.NumCPU(), runtime.Version())
}

// newBaseline builds a baseline from one benchmark run. Every benchmark must
// report B/op and allocs/op, so the written file gates all three columns.
func newBaseline(in benchInput, nsTol float64) (baselineDoc, error) {
	doc := baselineDoc{
		Host: hostClass(in.cpu), GOMAXPROCS: in.procs,
		TolerancePct: nsTol, NsPerOp: make(map[string]float64),
		BytesTolerancePct: memTolerancePct, BytesPerOp: make(map[string]float64),
		AllocsTolerancePct: memTolerancePct, AllocsPerOp: make(map[string]float64),
	}
	for _, g := range doc.gates() {
		for name, cols := range in.samples {
			xs, ok := cols[g.unit]
			if !ok {
				return doc, fmt.Errorf("benchguard: %s reports no %s (run go test with -benchmem)", name, g.unit)
			}
			g.base[name] = median(xs)
		}
	}
	return doc, nil
}

// compare checks the input against the baseline, writing one verdict line
// per gated column, and returns how many gates failed. An input run at a
// GOMAXPROCS other than the baseline's is one failure and is not compared.
func compare(doc baselineDoc, in benchInput, w io.Writer) int {
	if doc.GOMAXPROCS != 0 && in.procs != doc.GOMAXPROCS {
		fmt.Fprintf(w, "FAIL baseline ran at GOMAXPROCS=%d, input at %d: not comparable (run go test with -cpu %d)\n",
			doc.GOMAXPROCS, in.procs, doc.GOMAXPROCS)
		return 1
	}
	if host := hostClass(in.cpu); doc.Host != "" && doc.Host != host {
		fmt.Fprintf(w, "note: baseline measured on %q, this run on %q; ns/op compares across hosts\n",
			doc.Host, host)
	}
	failed := 0
	absent := make(map[string]bool)
	for _, g := range doc.gates() {
		names := make([]string, 0, len(g.base))
		for name := range g.base {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cols, ok := in.samples[name]
			if !ok {
				if !absent[name] {
					absent[name] = true
					fmt.Fprintf(w, "FAIL %s: in baseline but absent from input (did the benchmark get renamed or skipped?)\n", name)
					failed++
				}
				continue
			}
			xs, ok := cols[g.unit]
			if !ok {
				fmt.Fprintf(w, "FAIL %s: no %s column in input (run go test with -benchmem)\n", name, g.unit)
				failed++
				continue
			}
			base, med := g.base[name], median(xs)
			limit := base * (1 + g.tol/100)
			verdict := "ok  "
			if med > limit {
				verdict = "FAIL"
				failed++
			}
			change := "n/a"
			if base > 0 {
				change = fmt.Sprintf("%+.1f%%", (med/base-1)*100)
			}
			fmt.Fprintf(w, "%s %s: median %.1f %s vs baseline %.1f (%s, limit +%.0f%%, %d reps)\n",
				verdict, name, med, g.unit, base, change, g.tol, len(xs))
		}
	}
	names := make([]string, 0, len(in.samples))
	for name := range in.samples {
		if _, ok := doc.NsPerOp[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "note %s: not in baseline, ignored (regenerate with -update to track it)\n", name)
	}
	return failed
}

func readBaseline(path string) (baselineDoc, error) {
	var doc baselineDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("benchguard: %s: %w", path, err)
	}
	if len(doc.NsPerOp) == 0 {
		return doc, fmt.Errorf("benchguard: %s has no benchmarks", path)
	}
	for _, g := range doc.gates() {
		if len(g.base) > 0 && g.tol <= 0 {
			return doc, fmt.Errorf("benchguard: %s gates %s with no tolerance", path, g.unit)
		}
	}
	return doc, nil
}

func printBaseline(path string, doc baselineDoc) {
	fmt.Printf("baseline %s: %d benchmarks at GOMAXPROCS=%d, measured on %q\n",
		path, len(doc.NsPerOp), doc.GOMAXPROCS, doc.Host)
	for _, g := range doc.gates() {
		if len(g.base) == 0 {
			continue
		}
		names := make([]string, 0, len(g.base))
		for name := range g.base {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf(" %s, tolerance +%.0f%%:\n", g.unit, g.tol)
		for _, name := range names {
			base := g.base[name]
			fmt.Printf("  %s: %.1f %s (fails above %.1f)\n", name, base, g.unit, base*(1+g.tol/100))
		}
	}
}

func run() error {
	baselinePath := flag.String("baseline", "golden/bench_baseline.json",
		"baseline JSON to compare against (or write, with -update)")
	update := flag.Bool("update", false,
		"regenerate the baseline from the input instead of comparing")
	tolerance := flag.Float64("tolerance", 25,
		"allowed ns/op regression percent when writing a new baseline")
	list := flag.Bool("list", false,
		"print the baseline's host, benchmarks and thresholds instead of comparing")
	flag.Parse()

	if *list {
		doc, err := readBaseline(*baselinePath)
		if err != nil {
			return err
		}
		printBaseline(*baselinePath, doc)
		return nil
	}

	r := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	} else if flag.NArg() > 1 {
		return fmt.Errorf("benchguard: at most one input file, got %d", flag.NArg())
	}
	in, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(in.samples) == 0 {
		return errors.New("benchguard: no benchmark results in input")
	}

	if *update {
		doc, err := newBaseline(in, *tolerance)
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchguard: wrote %s (%d benchmarks on %q)\n", *baselinePath, len(doc.NsPerOp), doc.Host)
		return nil
	}

	doc, err := readBaseline(*baselinePath)
	if err != nil {
		return err
	}
	if failed := compare(doc, in, os.Stdout); failed > 0 {
		return fmt.Errorf("benchguard: %d gate(s) regressed beyond tolerance", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
