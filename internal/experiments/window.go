package experiments

import (
	"fmt"
	"text/tabwriter"

	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/exact"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/randx"
	"gps/internal/stats"
)

// WindowRow is one (window, sample size, motif) cell of the turnstile
// sliding-window accuracy experiment: the exact count over the surviving
// in-window subgraph (trial 0's stream; every trial is normalized by its
// own exact counts), the mean windowed GPS estimate rescaled to that truth,
// and the NRMSE of the per-trial estimate/exact ratios against 1.
type WindowRow struct {
	WindowFrac float64 `json:"window_frac"` // window width as a fraction of the stream span
	M          int     `json:"m"`
	Motif      string  `json:"motif"`
	Exact      float64 `json:"exact_windowed"`
	Mean       float64 `json:"mean_estimate"`
	NRMSE      float64 `json:"nrmse"`
}

// WindowConfig parameterizes the sliding-window experiment.
type WindowConfig struct {
	// Nodes/K/Triad shape the Holme-Kim stream (clustered, so triangle
	// weights have structure to chase). Zero values take the defaults.
	Nodes, K int
	Triad    float64
	// WindowFracs are the window widths swept, as fractions of the stream's
	// event span; each pane is a quarter of its window. Default {0.25, 0.5}.
	WindowFracs []float64
	// SampleSizes are the pane reservoir capacities swept. Default {4K, 20K}.
	SampleSizes []int
	// Shards is the live pane's parallel shard count. Default 2.
	Shards int
	// DeleteEvery/DeleteLag shape the turnstile churn: every DeleteEvery-th
	// insert also deletes the edge inserted DeleteLag positions earlier.
	// Defaults 7 and span/5.
	DeleteEvery, DeleteLag int
}

func (c WindowConfig) withDefaults() WindowConfig {
	if c.Nodes == 0 {
		c.Nodes = 20000
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.Triad == 0 {
		c.Triad = 0.3
	}
	if len(c.WindowFracs) == 0 {
		c.WindowFracs = []float64{0.25, 0.5}
	}
	if len(c.SampleSizes) == 0 {
		c.SampleSizes = []int{4000, 20000}
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.DeleteEvery == 0 {
		c.DeleteEvery = 7
	}
	return c
}

// turnstileWindow turns a deduplicated base edge list into a timed
// turnstile stream: the i-th edge is inserted at event time i+1, and every
// every-th insert also deletes the edge inserted lag positions earlier (at
// the current event time, each edge at most once). It returns the records
// and the surviving timed edges — the ground-truth graph the window
// estimators are judged against.
func turnstileWindow(base []graph.Edge, every, lag int) (records, survivors []graph.Edge) {
	deleted := map[uint64]bool{}
	for i, e := range base {
		ts := uint64(i + 1)
		records = append(records, e.At(ts))
		if i%every == every/2 && i >= lag {
			victim := base[i-lag]
			if !deleted[victim.Key()] {
				deleted[victim.Key()] = true
				records = append(records, victim.At(ts).AsDeletion())
			}
		}
	}
	for i, e := range base {
		if !deleted[e.Key()] {
			survivors = append(survivors, e.At(uint64(i+1)))
		}
	}
	return records, survivors
}

// WindowAccuracy measures the NRMSE of the windowed triangle/wedge/edge
// estimators against exact counts of the surviving in-window subgraph on a
// turnstile Holme-Kim stream (event time = stream position, inserts
// interleaved with lagged deletions). It is the turnstile counterpart of
// DecayAccuracy, and the source of the committed bounds in the tier-1
// windowed-accuracy regression test.
func WindowAccuracy(opts Options, cfg WindowConfig) ([]WindowRow, error) {
	opts = opts.withDefaults()
	cfg = cfg.withDefaults()
	raw := gen.HolmeKim(cfg.Nodes, cfg.K, cfg.Triad, 0x717D0+opts.Seed%1000)
	// Dedupe: a repeated edge inserted into two different panes would be
	// double-counted by the pane merge, so the stream must be simple.
	seen := map[uint64]bool{}
	var base []graph.Edge
	for _, e := range raw {
		if !seen[e.Key()] {
			seen[e.Key()] = true
			base = append(base, e)
		}
	}
	span := uint64(len(base))
	lag := cfg.DeleteLag
	if lag == 0 {
		lag = len(base) / 5
	}

	var rows []WindowRow
	for _, frac := range cfg.WindowFracs {
		win := uint64(frac * float64(span))
		if win < 4 {
			return nil, fmt.Errorf("window: fraction %v yields a degenerate window %d", frac, win)
		}
		for _, m := range cfg.SampleSizes {
			m := clampSample(m, len(base))
			// Each trial permutes (and therefore re-timestamps) the
			// turnstile stream, so the exact in-window counts differ per
			// trial: collect estimate/exact ratios and measure NRMSE against
			// 1, so the metric is pure estimator error, not truth drift.
			ratios := map[string][]float64{}
			exact0 := map[string]float64{}
			for trial := 0; trial < opts.Trials; trial++ {
				ss, ps := opts.trialSeed(0, trial)
				perm := append([]graph.Edge(nil), base...)
				randx.New(ps+uint64(m)).Shuffle(len(perm), func(i, j int) {
					perm[i], perm[j] = perm[j], perm[i]
				})
				records, survivors := turnstileWindow(perm, cfg.DeleteEvery, lag)
				edgeCount, tri, wedge := exact.Windowed(survivors, win, span)
				if edgeCount <= 0 || tri <= 0 || wedge <= 0 {
					return nil, fmt.Errorf("window: degenerate exact counts (%d, %d, %d) for window %d", edgeCount, tri, wedge, win)
				}
				if trial == 0 {
					exact0["triangles"] = float64(tri)
					exact0["wedges"] = float64(wedge)
					exact0["edges"] = float64(edgeCount)
				}

				w, err := engine.NewWindowed(engine.WindowConfig{
					Capacity:  m,
					Weight:    core.TriangleWeight,
					Seed:      ss + uint64(m),
					Shards:    cfg.Shards,
					PaneWidth: max(win/4, 1),
					Window:    win,
				})
				if err != nil {
					return nil, err
				}
				if err := w.ProcessBatch(records); err != nil {
					w.Close()
					return nil, err
				}
				est, err := w.Estimate(win)
				w.Close()
				if err != nil {
					return nil, err
				}
				ratios["triangles"] = append(ratios["triangles"], est.Triangles/float64(tri))
				ratios["wedges"] = append(ratios["wedges"], est.Wedges/float64(wedge))
				ratios["edges"] = append(ratios["edges"], est.Edges/float64(edgeCount))
			}
			for _, motif := range []string{"edges", "triangles", "wedges"} {
				vals := ratios[motif]
				mean := 0.0
				for _, v := range vals {
					mean += v
				}
				mean /= float64(len(vals))
				rows = append(rows, WindowRow{
					WindowFrac: frac, M: m, Motif: motif,
					Exact: exact0[motif],
					Mean:  mean * exact0[motif], // mean ratio rescaled to trial-0 truth for display
					NRMSE: stats.NRMSE(vals, 1),
				})
			}
		}
	}
	return rows, nil
}

// RenderWindow formats window rows as a text table.
func RenderWindow(rows []WindowRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "window\tm\tmotif\texact windowed\tmean estimate\tNRMSE")
		for _, r := range rows {
			fmt.Fprintf(w, "%.2f·span\t%d\t%s\t%s\t%s\t%.4f\n",
				r.WindowFrac, r.M, r.Motif, human(r.Exact), human(r.Mean), r.NRMSE)
		}
	})
}
