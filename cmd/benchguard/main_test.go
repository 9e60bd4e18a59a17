package main

import (
	"regexp"
	"strings"
	"testing"
)

// capturedRun is `go test -run '^$' -bench 'ScanMinPlus|EdgeCellBlock'
// -benchmem -count=3` output, trimmed to what the guard reads.
const capturedRun = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Test CPU @ 2.00GHz
BenchmarkScanMinPlus-2   	   24536	     49716 ns/op	     14744 entries/op	       0 B/op	       0 allocs/op
BenchmarkScanMinPlus-2   	   24229	     49209 ns/op	     14744 entries/op	       0 B/op	       0 allocs/op
BenchmarkScanMinPlus-2   	   24448	     50112 ns/op	     14744 entries/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/core	4.020s
pkg: repro/internal/cost
cpu: Test CPU @ 2.00GHz
BenchmarkEdgeCellBlock-2   	      31	  14000000 ns/op	    262144 cells/op	10504032 B/op	      23 allocs/op
BenchmarkEdgeCellBlock-2   	      30	  14500000 ns/op	    262144 cells/op	10504034 B/op	      23 allocs/op
BenchmarkEdgeCellBlock-2   	      38	  13900000 ns/op	    262144 cells/op	10504030 B/op	      23 allocs/op
PASS
`

// replace edits the captured run by old, new string pairs.
func replace(oldnew ...string) func(string) string {
	return strings.NewReplacer(oldnew...).Replace
}

// dropMem strips the B/op and allocs/op columns from every
// BenchmarkEdgeCellBlock line, as a run without -benchmem prints them.
func dropMem(s string) string {
	return regexp.MustCompile(`(?m)^(BenchmarkEdgeCellBlock.*cells/op)\s+\d+ B/op\s+\d+ allocs/op$`).
		ReplaceAllString(s, "$1")
}

func testBaseline() baselineDoc {
	return baselineDoc{
		GOMAXPROCS:         2,
		TolerancePct:       25,
		NsPerOp:            map[string]float64{"BenchmarkScanMinPlus": 50000, "BenchmarkEdgeCellBlock": 14000000},
		BytesTolerancePct:  10,
		BytesPerOp:         map[string]float64{"BenchmarkScanMinPlus": 0, "BenchmarkEdgeCellBlock": 10504032},
		AllocsTolerancePct: 10,
		AllocsPerOp:        map[string]float64{"BenchmarkScanMinPlus": 0, "BenchmarkEdgeCellBlock": 23},
	}
}

func TestParseBenchColumns(t *testing.T) {
	in, err := parseBench(strings.NewReader(capturedRun))
	if err != nil {
		t.Fatal(err)
	}
	if in.cpu != "Test CPU @ 2.00GHz" {
		t.Errorf("cpu = %q", in.cpu)
	}
	cols := in.samples["BenchmarkEdgeCellBlock"]
	for unit, want := range map[string]float64{"ns/op": 14000000, "B/op": 10504032, "allocs/op": 23, "cells/op": 262144} {
		if xs := cols[unit]; len(xs) != 3 || median(xs) != want {
			t.Errorf("%s samples %v, want 3 with median %v", unit, xs, want)
		}
	}
}

// TestCompareGates runs the guard over the captured output with one column
// edited per case: a B/op regression past 10% in the median fails (one noisy
// repetition does not), a missing B/op column (-benchmem dropped) fails
// rather than passing, and an ns/op move inside 25% passes.
func TestCompareGates(t *testing.T) {
	cases := []struct {
		name     string
		edit     func(string) string
		failures int
		wantLine string
	}{
		{"unchanged", nil, 0, "ok   BenchmarkEdgeCellBlock: median 10504032.0 B/op"},
		{"ns within tolerance", replace("14500000 ns/op", "16000000 ns/op"), 0,
			"ok   BenchmarkEdgeCellBlock: median 14000000.0 ns/op"},
		{"one noisy B/op repetition", replace("10504034 B/op", "12100000 B/op"), 0, ""},
		{"B/op regression in the median",
			replace("10504032 B/op", "12100000 B/op", "10504030 B/op", "12100000 B/op"), 1,
			"FAIL BenchmarkEdgeCellBlock: median 12100000.0 B/op"},
		// Without -benchmem both memory columns vanish: two gates fail.
		{"missing B/op column", dropMem, 2, "FAIL BenchmarkEdgeCellBlock: no B/op column"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			input := capturedRun
			if tc.edit != nil {
				input = tc.edit(input)
			}
			in, err := parseBench(strings.NewReader(input))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			got := compare(testBaseline(), in, &out)
			if got != tc.failures {
				t.Errorf("%d failures, want %d:\n%s", got, tc.failures, out.String())
			}
			if tc.wantLine != "" && !strings.Contains(out.String(), tc.wantLine) {
				t.Errorf("output lacks %q:\n%s", tc.wantLine, out.String())
			}
		})
	}
}

// TestCompareAllocsRegression fails every repetition's allocs/op, so the
// median moves past its tolerance, and drops a benchmark from the input.
func TestCompareAllocsRegression(t *testing.T) {
	input := strings.ReplaceAll(capturedRun, "23 allocs/op", "26 allocs/op")
	in, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	delete(in.samples, "BenchmarkScanMinPlus")
	var out strings.Builder
	// One absent benchmark (reported once, not once per column) plus the
	// allocs/op regression.
	if got := compare(testBaseline(), in, &out); got != 2 {
		t.Fatalf("%d failures, want 2:\n%s", got, out.String())
	}
	for _, want := range []string{
		"FAIL BenchmarkEdgeCellBlock: median 26.0 allocs/op",
		"FAIL BenchmarkScanMinPlus: in baseline but absent",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestNewBaselineNeedsBenchmem refuses to write a baseline that could not
// gate allocations.
func TestNewBaselineNeedsBenchmem(t *testing.T) {
	in, err := parseBench(strings.NewReader(dropMem(capturedRun)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newBaseline(in, 25); err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("newBaseline without B/op: err = %v", err)
	}
	in, err = parseBench(strings.NewReader(capturedRun))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := newBaseline(in, 25)
	if err != nil {
		t.Fatal(err)
	}
	if doc.BytesPerOp["BenchmarkEdgeCellBlock"] != 10504032 || doc.AllocsPerOp["BenchmarkScanMinPlus"] != 0 ||
		doc.GOMAXPROCS != 2 || doc.BytesTolerancePct != memTolerancePct ||
		!strings.HasPrefix(doc.Host, "Test CPU @ 2.00GHz; ") {
		t.Fatalf("baseline %+v", doc)
	}
	var out strings.Builder
	if got := compare(doc, in, &out); got != 0 {
		t.Fatalf("fresh baseline fails its own input:\n%s", out.String())
	}
}

// TestCompareRefusesOtherGOMAXPROCS: B/op grows with the worker count, so a
// run at another GOMAXPROCS fails instead of being compared, and an input
// that mixes two values does not parse.
func TestCompareRefusesOtherGOMAXPROCS(t *testing.T) {
	// -cpu 1 prints names without a suffix.
	in, err := parseBench(strings.NewReader(strings.ReplaceAll(capturedRun, "-2 ", " ")))
	if err != nil {
		t.Fatal(err)
	}
	if in.procs != 1 {
		t.Fatalf("procs = %d, want 1", in.procs)
	}
	var out strings.Builder
	if got := compare(testBaseline(), in, &out); got != 1 || !strings.Contains(out.String(), "FAIL baseline ran at GOMAXPROCS=2, input at 1") {
		t.Fatalf("%d failures, want 1:\n%s", got, out.String())
	}
	mixed := strings.Replace(capturedRun, "BenchmarkScanMinPlus-2 ", "BenchmarkScanMinPlus-4 ", 1)
	if _, err := parseBench(strings.NewReader(mixed)); err == nil || !strings.Contains(err.Error(), "mixes GOMAXPROCS") {
		t.Fatalf("mixed GOMAXPROCS: err = %v", err)
	}
}
