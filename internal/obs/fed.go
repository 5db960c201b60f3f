package obs

// FedMetrics are the federation coordinator's per-worker counters,
// exported on the coordinator's /metrics. Every family is labeled by
// worker (the worker's base URL) so a straggling or flapping worker is
// visible as its own series: how many cells each worker took from the
// coordinator's one queue and finished, replications fanning results
// back out, and the transport failures that precede a worker being
// declared down.
type FedMetrics struct {
	// Assigned counts dispatches: cells a slot on the worker took from
	// the queue, a cell sent again after its first worker died
	// included.
	Assigned *CounterVec
	// Stolen reads 0: the coordinator has one queue and nothing to
	// steal from. It stays registered for the benchmark's
	// fed.stolen_cells.
	Stolen *CounterVec
	// Done counts cells the worker completed successfully.
	Done *CounterVec
	// Replications counts finished-cell tables pushed to the labeled
	// worker via POST /v1/results.
	Replications *CounterVec
	// WorkerFailures counts transport-level failures talking to the
	// worker; the first one marks it down.
	WorkerFailures *CounterVec
}

// NewFedMetrics registers the federation counter families on r.
func NewFedMetrics(r *Registry) *FedMetrics {
	return &FedMetrics{
		Assigned: r.NewCounterVec("imagebench_fed_cells_assigned_total",
			"Sweep cells dispatched to a worker (including resends after a worker failure).", "worker"),
		Stolen: r.NewCounterVec("imagebench_fed_cells_stolen_total",
			"Always 0: the coordinator dispatches from one queue and steals nothing.", "worker"),
		Done: r.NewCounterVec("imagebench_fed_cells_done_total",
			"Sweep cells completed by a worker.", "worker"),
		Replications: r.NewCounterVec("imagebench_fed_replications_total",
			"Finished-cell results replicated to a worker via POST /v1/results.", "worker"),
		WorkerFailures: r.NewCounterVec("imagebench_fed_worker_failures_total",
			"Transport failures talking to a worker.", "worker"),
	}
}
