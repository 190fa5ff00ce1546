package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"strconv"

	"lcasgd/internal/ps"
)

// digest fingerprints a result by the float64 bits of everything the paper
// artifacts are drawn from: curve points, final errors, virtual time,
// update count and staleness.
func digest(r ps.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range r.Points {
		put(float64(p.Epoch))
		put(p.Time)
		put(p.TrainErr)
		put(p.TestErr)
	}
	put(r.FinalTrainErr)
	put(r.FinalTestErr)
	put(r.VirtualMs)
	put(float64(r.Updates))
	put(r.MeanStaleness)
	put(float64(r.MaxStaleness))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkResult is the self-check every cell passes, golden or not.
func checkResult(r ps.Result) error {
	if len(r.Points) == 0 || r.Updates <= 0 {
		return fmt.Errorf("empty run: %d curve points, %d updates", len(r.Points), r.Updates)
	}
	for _, e := range []float64{r.FinalTrainErr, r.FinalTestErr} {
		if !(e >= 0 && e <= 1) {
			return fmt.Errorf("final error %v outside [0, 1]", e)
		}
	}
	return nil
}

// golden holds, per workload and seed, the digests of every cell and the
// deterministic counts of a traced run. A later change that moves a count
// shows as a diff here; one that moves a digest fails the output check.
type golden map[string]map[string]goldenEntry

type goldenEntry struct {
	Digests map[string]string  `json:"digests"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func loadGolden(path string) (golden, error) {
	g := golden{}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g golden) entry(workload string, seed uint64) (goldenEntry, bool) {
	e, ok := g[workload][strconv.FormatUint(seed, 10)]
	return e, ok
}

// record stores digests, and counts when given, for the workload and seed.
func (g golden) record(path, workload string, seed uint64, digests map[string]string, counts map[string]float64) error {
	if g[workload] == nil {
		g[workload] = map[string]goldenEntry{}
	}
	key := strconv.FormatUint(seed, 10)
	e := g[workload][key]
	e.Digests = digests
	if counts != nil {
		e.Counts = counts
	}
	g[workload][key] = e
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
