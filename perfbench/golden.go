package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
)

// goldens maps "Model@devices" to the expected strategy digest.
type goldens map[string]string

// loadGoldens reads a checked-in digest file (read-only).
func loadGoldens(path string) (goldens, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read goldens: %w", err)
	}
	var g goldens
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("parse goldens %s: %w", path, err)
	}
	return g, nil
}

// want returns the golden digest for model@devices, or an error when the
// file has no such cell (a benchmark input the goldens do not pin).
func (g goldens) want(model string, devices int) (string, error) {
	key := fmt.Sprintf("%s@%d", model, devices)
	d, ok := g[key]
	if !ok {
		return "", fmt.Errorf("no golden digest for %s", key)
	}
	return d, nil
}

// strategyDigest fingerprints a core search result the way the Table 2
// goldens and primepard's /v1/plan digest do: SHA-256 over the
// length-prefixed per-node sequence keys, then the exact LayerCost,
// TotalCost and Layers bits.
func strategyDigest(s *core.Strategy) string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, seq := range s.Seqs {
		k := seq.Key()
		w64(uint64(len(k)))
		h.Write([]byte(k))
	}
	w64(math.Float64bits(s.LayerCost))
	w64(math.Float64bits(s.TotalCost))
	w64(uint64(s.Layers))
	return fmt.Sprintf("%x", h.Sum(nil))
}
