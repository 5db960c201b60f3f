package sweep

import (
	"strconv"

	"imagebench/internal/obs"
)

// watchSweep ends the sweep's root span once every cell job terminates,
// stamping the final cell-state tally. It is a no-op without a tracer
// (nil root span).
func watchSweep(root *obs.Span, s *Sweep) {
	if root == nil {
		return
	}
	go func() {
		for _, c := range s.Cells {
			<-c.job.Done()
		}
		info := s.Info(false)
		root.SetAttr("done", strconv.Itoa(info.Done))
		root.SetAttr("failed", strconv.Itoa(info.Failed))
		root.SetAttr("unsupported", strconv.Itoa(info.Unsupported))
		root.End()
	}()
}

// RegisterMetrics publishes the manager's sweep and cell-state gauges
// on r. Cell states are computed on scrape by walking the retained
// sweeps — cheap at the manager's bounded index size, and always
// consistent with /v1/sweeps.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	r.NewGaugeFunc("imagebench_sweeps",
		"Sweeps retained in the manager's index.",
		func() float64 { return float64(m.Len()) })
	state := func(pick func(Info) int) func() float64 {
		return func() float64 {
			total := 0
			for _, s := range m.List() {
				total += pick(s.Info(false))
			}
			return float64(total)
		}
	}
	r.NewGaugeFunc("imagebench_sweep_cells_pending",
		"Sweep cells queued or running.",
		state(func(i Info) int { return i.Queued + i.Running }))
	r.NewGaugeFunc("imagebench_sweep_cells_done",
		"Sweep cells completed successfully.",
		state(func(i Info) int { return i.Done }))
	r.NewGaugeFunc("imagebench_sweep_cells_failed",
		"Sweep cells that failed.",
		state(func(i Info) int { return i.Failed }))
	r.NewGaugeFunc("imagebench_sweep_cells_unsupported",
		"Sweep cells not applicable under their engine filter.",
		state(func(i Info) int { return i.Unsupported }))
}
