package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// On a shared VM whose memory system other tenants load, the planner's op
// latency drifts by ±25% over minutes with the same code and inputs, and a
// window of 20–60 s does not average it out. A fixed memory-bound kernel
// slows down with it (README.md, "Host normalisation"). perfbench therefore
// runs that kernel between ops, in a child process of its own, and scales
// every wall-time end-to-end metric by probeNominalMS / (median probe time
// of the run): timings read as they would on a host where one probe takes
// probeNominalMS.
const (
	// probeNominalMS is the reference host speed: the median probe time on
	// a quiet 2-vCPU KVM guest (Intel Xeon) where this benchmark was tuned.
	probeNominalMS = 6.0
	// probeEvery is the least op time between two probes.
	probeEvery = 250 * time.Millisecond
)

// Probe kernel working set: an 8 MB stream and a 32 MB random cycle, both
// well beyond a per-core share of the last-level cache.
const (
	probeStreamWords = 1 << 20
	probeCycleWords  = 8 << 20
	probeChases      = 20000
)

// probeKernel is the fixed work one probe times. It allocates nothing, so
// the probe process never collects garbage.
type probeKernel struct {
	stream []float64
	cycle  []uint32 // a single random cycle through all its indices
	sink   float64
}

func newProbeKernel() *probeKernel {
	k := &probeKernel{stream: make([]float64, probeStreamWords), cycle: make([]uint32, probeCycleWords)}
	// Sattolo's algorithm: a uniformly random permutation with one cycle,
	// so a chase never falls into a short loop that stays in cache.
	perm := make([]uint32, probeCycleWords)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(perm) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		k.cycle[perm[i]] = perm[(i+1)%len(perm)]
	}
	return k
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run times one pass of the kernel. A first, untimed pass brings the
// working set back into cache, so the timed pass does not depend on how
// much of it the planner evicted since the last probe.
func (k *probeKernel) run() time.Duration {
	k.work()
	t := time.Now()
	k.work()
	return time.Since(t)
}

func (k *probeKernel) work() {
	x := uint64(2463534242)
	for i := range k.stream {
		x = xorshift(x)
		k.stream[i] = float64(x>>11) / (1 << 53)
	}
	j := uint32(x % probeCycleWords)
	for i := 0; i < probeChases; i++ {
		j = k.cycle[j]
	}
	k.sink += k.stream[j%probeStreamWords]
}

// serveProbes is the probe process: for each line read from in it runs the
// kernel once and writes the nanoseconds taken as one line to out. It
// returns when in is closed.
func serveProbes(in io.Reader, out io.Writer) error {
	k := newProbeKernel()
	sc := bufio.NewScanner(in)
	w := bufio.NewWriter(out)
	for sc.Scan() {
		fmt.Fprintln(w, int64(k.run()))
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

// prober drives the probe process. A nil prober (traced runs) does nothing.
type prober struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	last  time.Time
	spent time.Duration // wall time spent in maybe, probes and pipe included
	alloc float64       // heap bytes this process allocated in maybe
	ms    []float64
	// after, when set, is more untimed work to do right after each probe
	// (in-process workloads repeat their set-up there: timeSetup).
	after   func() error
	err     error
	stopped bool
}

// startProber spawns this binary with -probe, pinned to one P.
func startProber() (*prober, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-probe")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &prober{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// maybe runs one probe, and then p.after, if probeEvery has passed since
// the last probe. Call it between ops, outside any timed interval.
func (p *prober) maybe() {
	if p == nil || p.err != nil || time.Since(p.last) < probeEvery {
		return
	}
	t, a := time.Now(), readProc().allocBytes
	// Finish any garbage collection in progress and hold off the next, so
	// that no background mark work of this process shares the memory
	// system with the probe: its time must measure the host, not the
	// planner's heap.
	gc := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gc)
		p.spent += time.Since(t)
		p.alloc += readProc().allocBytes - a
	}()
	if _, p.err = io.WriteString(p.in, "\n"); p.err != nil {
		return
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		p.err = fmt.Errorf("probe: %w", err)
		return
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		p.err = fmt.Errorf("probe: %w", err)
		return
	}
	p.ms = append(p.ms, float64(ns)/1e6)
	if p.after != nil {
		p.err = p.after()
	}
	p.last = time.Now()
}

// probing is the wall time spent probing so far, for loops that time
// themselves across probes to leave out.
func (p *prober) probing() time.Duration {
	if p == nil {
		return 0
	}
	return p.spent
}

// allocated is the heap bytes allocated in maybe so far, for loops that
// count their ops' allocations to leave out.
func (p *prober) allocated() float64 {
	if p == nil {
		return 0
	}
	return p.alloc
}

// medianMS is the run's median probe time, the measure of host speed.
func (p *prober) medianMS() (float64, error) {
	if p.err != nil {
		return 0, p.err
	}
	if len(p.ms) == 0 {
		return 0, fmt.Errorf("probe: no samples")
	}
	return median(p.ms), nil
}

// stop closes the probe process's input and waits for it to exit. It may
// be called more than once.
func (p *prober) stop() {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	p.in.Close()
	if err := p.cmd.Wait(); err != nil && p.err == nil {
		p.err = fmt.Errorf("probe process: %w", err)
	}
}
