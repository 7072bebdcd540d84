package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"intsched/internal/core"
)

// Pool executes independent scenario cells (one full simulation each) on a
// bounded set of worker goroutines. Every cell owns its engine, network,
// and RNG — the packages under internal/ hold no mutable package-level
// state — so cells are embarrassingly parallel, and because results are
// reassembled in submission order, serial and parallel execution produce
// byte-identical reports.
//
// A nil *Pool is valid and runs every cell serially on the calling
// goroutine, so the package-level Compare/Fig3/Fig9 helpers are simply
// delegations to (*Pool)(nil).
type Pool struct {
	workers int
}

// NewPool returns a pool running at most workers cells concurrently.
// workers <= 0 selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's concurrency bound (1 for a nil or serial pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// run executes fn(0..n-1) across the pool's workers and waits for all of
// them. fn stores its own result by index, which is what makes reassembly
// order-independent of goroutine scheduling. When several cells fail, the
// lowest-indexed error is returned — the same error a serial pass would
// have surfaced first.
func (p *Pool) run(n int, fn func(i int) error) error {
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunScenarios runs each scenario as one cell and returns the results in
// input order.
func (p *Pool) RunScenarios(scs []Scenario) ([]*RunResult, error) {
	out := make([]*RunResult, len(scs))
	err := p.run(len(scs), func(i int) error {
		r, err := Run(scs[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Compare runs the scenario once per metric (each metric one cell),
// replaying the same inputs.
func (p *Pool) Compare(sc Scenario, metrics []core.Metric) (*Comparison, error) {
	runs := make([]*RunResult, len(metrics))
	err := p.run(len(metrics), func(i int) error {
		run := sc
		run.Metric = metrics[i]
		res, err := Run(run)
		if err != nil {
			return metricErr(metrics[i], err)
		}
		runs[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{Scenario: sc, Runs: make(map[core.Metric]*RunResult, len(metrics))}
	for i, m := range metrics {
		cmp.Runs[m] = runs[i]
	}
	return cmp, nil
}

// Fig3 sweeps utilization levels, one cell per level.
func (p *Pool) Fig3(cfg Fig3Config) ([]Fig3Point, error) {
	cfg = cfg.withDefaults()
	out := make([]Fig3Point, len(cfg.Utilizations))
	err := p.run(len(cfg.Utilizations), func(i int) error {
		pt, err := fig3Point(cfg, cfg.Utilizations[i])
		if err != nil {
			return err
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig9 sweeps the probing interval under both background patterns; each
// (interval, traffic-pattern) pair is one cell.
func (p *Pool) Fig9(cfg Fig9Config) ([]Fig9Point, error) {
	cfg = cfg.withDefaults()
	cells := make([]Scenario, 0, 2*len(cfg.Intervals))
	for _, interval := range cfg.Intervals {
		cells = append(cells, fig9Scenario(cfg, interval, false), fig9Scenario(cfg, interval, true))
	}
	results, err := p.RunScenarios(cells)
	if err != nil {
		return nil, err
	}
	out := make([]Fig9Point, len(cfg.Intervals))
	for i, interval := range cfg.Intervals {
		out[i] = Fig9Point{
			Interval:             interval,
			Traffic1MeanTransfer: results[2*i].MeanTransfer(),
			Traffic2MeanTransfer: results[2*i+1].MeanTransfer(),
		}
	}
	return out, nil
}
