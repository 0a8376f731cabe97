package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/trace"
)

// OverloadSchema identifies the overload benchmark document
// (BENCH_overload.json); bump on incompatible change.
const OverloadSchema = "chaos-bench-overload/v1"

// Overload-cell serving shape. PredictStall pins the predict path at
// overloadStall per batch, so engine capacity is exactly
// overloadShards x overloadBatchMax / overloadStall samples/s on any
// hardware — which is what lets committed goodput numbers mean the same
// thing across machines.
const (
	overloadShards   = 1
	overloadBatchMax = 4
	overloadStall    = 5 * time.Millisecond
	overloadDeadline = 100 * time.Millisecond
)

// overloadCapacity is the pinned engine drain rate in samples/s.
func overloadCapacity() int {
	return int(float64(overloadShards*overloadBatchMax) / overloadStall.Seconds())
}

// OverloadDoc is the overload benchmark document: per-priority goodput
// and tail latency at fixed multiples of pinned engine capacity.
type OverloadDoc struct {
	Envelope
	// CapacityPerSec is the pinned engine drain rate every load multiple
	// is relative to.
	CapacityPerSec int     `json:"capacity_per_sec"`
	DeadlineMS     float64 `json:"deadline_ms"`
	// Weights is the interactive,batch,background traffic mix.
	Weights [overload.NumPriorities]int `json:"weights"`
	Seconds int                         `json:"seconds_per_cell"`
	// ReproVerified is set after the smallest cell is run twice and both
	// runs produced identical offered-workload digests.
	ReproVerified bool           `json:"repro_verified"`
	Cells         []OverloadCell `json:"cells"`
}

// OverloadCell is one load-multiple measurement.
type OverloadCell struct {
	// LoadX is the offered load as a multiple of engine capacity.
	LoadX      int        `json:"load_x"`
	OfferedPS  int        `json:"offered_per_sec"`
	Snapshots  int        `json:"snapshots"`
	WallMS     float64    `json:"wall_ms"`
	Shed       int        `json:"shed"`
	Late       int        `json:"late"`
	Failed     int        `json:"failed"`
	Tiers      []TierCell `json:"tiers"`
	Inversions uint64     `json:"inversion_ticks"`
	// Digest is the sha256 over the offered workload (seed, load shape,
	// and the exact per-tier request split); the same seed and cell must
	// reproduce it bit for bit.
	Digest string `json:"digest"`
}

// TierCell is one priority tier's slice of a cell.
type TierCell struct {
	Priority  string  `json:"priority"`
	Sent      int     `json:"sent"`
	OK        int     `json:"ok"`
	Shed      int     `json:"shed"`
	Late      int     `json:"late"`
	GoodputPS float64 `json:"goodput_per_sec"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// overloadWeights is the fixed interactive,batch,background mix.
var overloadWeights = [overload.NumPriorities]int{1, 3, 4}

// runOverloadCell boots a fresh overload-protected engine and drives it
// at loadX times pinned capacity for roughly `seconds` of offered load.
func runOverloadCell(reg *registry.Registry, names []string, traces []*trace.Trace, seed int64, loadX, seconds int) (OverloadCell, error) {
	srv, err := serve.New(reg, serve.Config{
		Shards: overloadShards, QueueDepth: 256,
		BatchWindow: 500 * time.Microsecond, BatchMax: overloadBatchMax,
		Deadline:     overloadDeadline,
		PredictStall: overloadStall,
		Names:        names,
		Overload: &overload.Config{
			Limiter: overload.LimiterConfig{
				Min: 8, Tolerance: 3,
				TierFrac: [overload.NumPriorities]float64{1, 0.25, 0.1},
			},
		},
	})
	if err != nil {
		return OverloadCell{}, err
	}
	defer srv.Close()
	httpSrv, err := serve.Serve("127.0.0.1:0", srv)
	if err != nil {
		return OverloadCell{}, err
	}
	defer httpSrv.Close()

	offered := overloadCapacity() * loadX
	snapshots := offered * seconds
	start := time.Now()
	stats, err := serve.RunLoadGen(serve.LoadGenConfig{
		TargetURL: "http://" + httpSrv.Addr(),
		Traces:    traces,
		Snapshots: snapshots, Rate: float64(offered), Clients: 256, Batch: 1,
		Seed:            seed,
		PriorityWeights: overloadWeights,
	})
	if err != nil {
		return OverloadCell{}, err
	}
	wall := time.Since(start)

	cell := OverloadCell{
		LoadX: loadX, OfferedPS: offered, Snapshots: stats.Snapshots,
		WallMS: math.Round(wall.Seconds()*1e4) / 10,
		Shed:   stats.Shed, Late: stats.Late, Failed: stats.Failed,
		Inversions: srv.Overload().InversionTicks(),
	}
	for p := 0; p < overload.NumPriorities; p++ {
		ts := stats.Tiers[p]
		tc := TierCell{
			Priority: overload.Priority(p).String(),
			Sent:     ts.Sent, OK: ts.OK, Shed: ts.Shed, Late: ts.Late,
			P50Ms: roundMs(ts.P50), P99Ms: roundMs(ts.P99),
		}
		if s := wall.Seconds(); s > 0 {
			tc.GoodputPS = round1(float64(ts.OK) / s)
		}
		cell.Tiers = append(cell.Tiers, tc)
	}

	// The offered workload is a pure function of (seed, cell shape): the
	// digest covers the replayed power series and the exact per-tier
	// request split, so a rerun must reproduce it bit for bit.
	d := newDigest()
	for _, tr := range traces {
		d.WriteFloats(tr.Power)
	}
	split := make([]float64, 0, overload.NumPriorities+3)
	split = append(split, float64(seed), float64(loadX), float64(snapshots))
	for p := 0; p < overload.NumPriorities; p++ {
		split = append(split, float64(stats.Tiers[p].Sent))
	}
	d.WriteFloats(split)
	cell.Digest = d.Hex()
	return cell, nil
}

func runOverloadBench(w io.Writer, out string, seed int64, loads []int, seconds int) error {
	if seconds < 1 {
		return fmt.Errorf("-overload-seconds must be >= 1")
	}
	digest := newDigest()
	traces, err := simulate("Core2", 3, seed, []string{"Prime", "Sort"}, digest)
	if err != nil {
		return err
	}
	cm, err := fitModel(traces)
	if err != nil {
		return err
	}
	reg := registry.New()
	if err := reg.Add("v1", cm, registry.Meta{Description: "bench", Source: "sim"}); err != nil {
		return err
	}

	doc := &OverloadDoc{
		Envelope: newEnvelope(OverloadSchema, seed), CapacityPerSec: overloadCapacity(),
		DeadlineMS: overloadDeadline.Seconds() * 1e3,
		Weights:    overloadWeights, Seconds: seconds,
	}
	for _, x := range loads {
		cell, err := runOverloadCell(reg, traces[0].Names, traces, seed, x, seconds)
		if err != nil {
			return err
		}
		doc.Cells = append(doc.Cells, cell)
		ti := cell.Tiers[overload.Interactive]
		fmt.Fprintf(w, "load=%dx offered=%d/s  interactive %4d/%-4d ok (%.0f/s, p99 %.1fms)  shed=%d late=%d\n",
			x, cell.OfferedPS, ti.OK, ti.Sent, ti.GoodputPS, ti.P99Ms, cell.Shed, cell.Late)
	}

	// Reproducibility: the smallest cell rerun must offer the identical
	// workload — same surge pacing, same per-tier split, same digest.
	err = verifyRepro(fmt.Sprintf("load %dx", loads[0]), doc.Cells[0].Digest, func() (string, error) {
		rerun, err := runOverloadCell(reg, traces[0].Names, traces, seed, loads[0], seconds)
		return rerun.Digest, err
	})
	if err != nil {
		return err
	}
	doc.ReproVerified = true
	return writeDoc(w, out, doc, len(doc.Cells), "repro verified")
}

// checkOverloadDoc validates an overload benchmark document. Beyond
// shape, it enforces the protection contract the subsystem exists for:
// at the heaviest load the interactive tier must survive at a strictly
// higher rate than background, and no cell may record a priority
// inversion or a transport failure.
func checkOverloadDoc(path string, doc *OverloadDoc, w io.Writer) error {
	if len(doc.Cells) < 2 {
		return fmt.Errorf("%s: %d cells, want at least 2 load multiples", path, len(doc.Cells))
	}
	if doc.CapacityPerSec <= 0 {
		return fmt.Errorf("%s: capacity_per_sec %d", path, doc.CapacityPerSec)
	}
	for i, c := range doc.Cells {
		if i > 0 && c.LoadX <= doc.Cells[i-1].LoadX {
			return fmt.Errorf("%s: cells not ordered by load multiple", path)
		}
		if len(c.Tiers) != overload.NumPriorities {
			return fmt.Errorf("%s: cell %dx has %d tiers, want %d", path, c.LoadX, len(c.Tiers), overload.NumPriorities)
		}
		if len(c.Digest) != 64 {
			return fmt.Errorf("%s: cell %dx missing digest", path, c.LoadX)
		}
		if c.Failed > 0 {
			return fmt.Errorf("%s: cell %dx recorded %d failed snapshots", path, c.LoadX, c.Failed)
		}
		if c.Inversions != 0 {
			return fmt.Errorf("%s: cell %dx recorded %d priority-inversion ticks", path, c.LoadX, c.Inversions)
		}
		for _, tr := range c.Tiers {
			if tr.Sent <= 0 {
				return fmt.Errorf("%s: cell %dx tier %s sent nothing", path, c.LoadX, tr.Priority)
			}
			if tr.OK > 0 && tr.P99Ms < tr.P50Ms {
				return fmt.Errorf("%s: cell %dx tier %s p99 < p50", path, c.LoadX, tr.Priority)
			}
		}
	}
	top := doc.Cells[len(doc.Cells)-1]
	if top.LoadX < 5 {
		return fmt.Errorf("%s: heaviest cell is %dx, want at least 5x capacity", path, top.LoadX)
	}
	if top.Shed == 0 {
		return fmt.Errorf("%s: %dx load shed nothing — the limiter did not engage", path, top.LoadX)
	}
	inter, back := top.Tiers[overload.Interactive], top.Tiers[overload.Background]
	interRate := float64(inter.OK) / float64(inter.Sent)
	backRate := float64(back.OK) / float64(back.Sent)
	if interRate <= backRate {
		return fmt.Errorf("%s: at %dx load interactive survival %.2f <= background %.2f — no priority protection",
			path, top.LoadX, interRate, backRate)
	}
	fmt.Fprintf(w, "%s: ok — %d load multiples up to %dx, interactive survives %.0f%% vs background %.0f%% at the top\n",
		path, len(doc.Cells), top.LoadX, interRate*100, backRate*100)
	return nil
}
