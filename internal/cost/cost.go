// Package cost is the calibrated cost model behind the cluster simulator.
//
// Every virtual duration charged by an engine comes from this package:
// algorithm throughputs (how fast one worker core chews through bytes of a
// given operation), serialization taxes (gob, TSV/CSV, tensor conversion,
// the Python-process IPC boundary), and per-system constants (startup
// latency, scheduler cost per task).
//
// Throughputs are expressed against *paper-scale* byte counts: the synthetic
// datasets are small, but every item carries the size its real-world
// counterpart would have (e.g. a 145×145×174 float32 dMRI volume is
// ~14.6 MB), so modeled runtimes land in the paper's regime. Absolute values
// are calibration choices; the experiments (internal/core, each with the
// paper's sentence in its Paper field and a Check beside it) compare
// *shapes* (who wins, by what factor, where crossovers fall), which derive
// from the engines' architecture, not from these constants.
package cost

import (
	"hash/fnv"
	"time"

	"imagebench/internal/vtime"
)

// Op identifies a pipeline operation with a calibrated per-worker throughput.
type Op int

// Operations used by the two use cases. Neuroscience: Filter through FitDTM.
// Astronomy: Preprocess through DetectSources.
const (
	// Neuroscience pipeline ops.
	Filter  Op = iota // select b0 volumes (IO-bound scan)
	Mean              // per-voxel mean across volumes
	Otsu              // histogram threshold on one volume
	Denoise           // 3D non-local means (compute-bound)
	Regroup           // voxel-block regrouping for model fit
	FitDTM            // per-voxel diffusion tensor fit

	// Astronomy pipeline ops.
	Preprocess    // background estimation, cosmic-ray repair, calibration
	PatchMap      // exposure → patch flatmap and regrouping
	CoaddIter     // one sigma-clipping iteration over a patch stack
	DetectSources // threshold + connected components on a coadd

	numOps
)

var opNames = [...]string{
	Filter: "filter", Mean: "mean", Otsu: "otsu", Denoise: "denoise",
	Regroup: "regroup", FitDTM: "fit-dtm", Preprocess: "preprocess",
	PatchMap: "patch-map", CoaddIter: "coadd-iter", DetectSources: "detect-sources",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// System identifies one of the five evaluated engines.
type System int

// The five systems evaluated by the paper, plus Reference for the
// single-node baseline implementations.
const (
	Myria System = iota
	Spark
	SciDB
	Dask
	TensorFlow
	Reference
	numSystems
)

var sysNames = [...]string{
	Myria: "Myria", Spark: "Spark", SciDB: "SciDB",
	Dask: "Dask", TensorFlow: "TensorFlow", Reference: "Reference",
}

func (s System) String() string {
	if int(s) < len(sysNames) {
		return sysNames[s]
	}
	return "system?"
}

// Model gathers every tunable constant. Construct with Default and override
// fields in tests or ablation benches.
type Model struct {
	// AlgBytesPerSec is the per-worker throughput of each operation,
	// in paper-scale bytes per virtual second.
	AlgBytesPerSec [numOps]float64

	// Serialization and conversion throughputs, bytes per virtual second.
	GobBytesPerSec    float64 // language-native serialization (pickling)
	TSVBytesPerSec    float64 // TSV encode/decode (SciDB stream interface)
	CSVBytesPerSec    float64 // CSV parse (SciDB aio_input)
	TensorBytesPerSec float64 // NumPy array ↔ tensor conversion (TensorFlow)
	PyIPCBytesPerSec  float64 // crossing the Python-process boundary, each way
	FormatBytesPerSec float64 // NIfTI/FITS decode into in-memory arrays

	// S3BytesPerSec is the per-connection object-store throughput.
	S3BytesPerSec float64
	// S3GetLatency is the fixed per-object GET latency.
	S3GetLatency vtime.Duration
	// S3ListPerKey is the per-key cost of enumerating a bucket listing
	// (paid serially by Spark's driver before scheduling downloads).
	S3ListPerKey vtime.Duration

	// Startup is the fixed virtual cost of bringing up each system's
	// runtime (JVM start, scheduler connect, catalog load, ...).
	Startup [numSystems]vtime.Duration

	// SchedPerTask is the centralized scheduler's serial cost to dispatch
	// one task. It is charged on a single scheduler timeline, so it bounds
	// scalability (Amdahl): Dask's dynamic scheduler pays the most.
	SchedPerTask [numSystems]vtime.Duration

	// StealPerTaskPerNode is extra per-task scheduler cost proportional to
	// cluster size, modeling work-stealing chatter. Only Dask sets it.
	StealPerTaskPerNode [numSystems]vtime.Duration

	// JitterFrac is the half-width of the deterministic per-task duration
	// jitter (e.g. 0.2 → task costs vary in [0.8,1.2]× of nominal). Jitter
	// models data skew; stage barriers amplify it, pipelining hides it.
	JitterFrac float64
}

// Default returns the calibrated model. Calibration notes:
//   - Denoise (3D non-local means) dominates the neuroscience pipeline,
//     ~1.6 MB/s/core, matching tens of seconds per 14.6 MB volume.
//   - Filter and Mean are scan-speed operations.
//   - Preprocess (background + CR repair) is the astronomy hot spot.
//   - The Python IPC tax is what separates Spark's filter from Myria's
//     pushed-down selection (Fig 12a).
func Default() *Model {
	m := &Model{
		GobBytesPerSec:    300e6,
		TSVBytesPerSec:    60e6,
		CSVBytesPerSec:    80e6,
		TensorBytesPerSec: 120e6,
		PyIPCBytesPerSec:  200e6,
		FormatBytesPerSec: 500e6,
		S3BytesPerSec:     60e6,
		S3GetLatency:      50 * time.Millisecond,
		S3ListPerKey:      15 * time.Millisecond,
		JitterFrac:        0.25,
	}
	m.AlgBytesPerSec = [numOps]float64{
		Filter:        800e6,
		Mean:          300e6,
		Otsu:          400e6,
		Denoise:       1.6e6,
		Regroup:       250e6,
		FitDTM:        6e6,
		Preprocess:    12e6,
		PatchMap:      150e6,
		CoaddIter:     80e6,
		DetectSources: 60e6,
	}
	m.Startup = [numSystems]vtime.Duration{
		Myria:      4 * time.Second,
		Spark:      8 * time.Second,
		SciDB:      6 * time.Second,
		Dask:       25 * time.Second,
		TensorFlow: 15 * time.Second,
		Reference:  0,
	}
	m.SchedPerTask = [numSystems]vtime.Duration{
		Myria:      100 * time.Microsecond,
		Spark:      800 * time.Microsecond,
		SciDB:      150 * time.Microsecond,
		Dask:       1500 * time.Microsecond,
		TensorFlow: 500 * time.Microsecond,
	}
	m.StealPerTaskPerNode = [numSystems]vtime.Duration{
		Dask: 60 * time.Microsecond,
	}
	return m
}

// AlgTime returns the virtual duration for one worker to run op over nbytes
// of paper-scale data.
func (m *Model) AlgTime(op Op, nbytes int64) vtime.Duration {
	return Dur(nbytes, m.AlgBytesPerSec[op])
}

// GobTime models language-native (de)serialization of nbytes.
func (m *Model) GobTime(nbytes int64) vtime.Duration { return Dur(nbytes, m.GobBytesPerSec) }

// TSVTime models TSV conversion of nbytes (one direction).
func (m *Model) TSVTime(nbytes int64) vtime.Duration { return Dur(nbytes, m.TSVBytesPerSec) }

// CSVTime models CSV parsing of nbytes.
func (m *Model) CSVTime(nbytes int64) vtime.Duration { return Dur(nbytes, m.CSVBytesPerSec) }

// TensorTime models array↔tensor conversion of nbytes (one direction).
func (m *Model) TensorTime(nbytes int64) vtime.Duration { return Dur(nbytes, m.TensorBytesPerSec) }

// PyIPCTime models moving nbytes across the Python process boundary once.
func (m *Model) PyIPCTime(nbytes int64) vtime.Duration { return Dur(nbytes, m.PyIPCBytesPerSec) }

// FormatTime models decoding nbytes of NIfTI/FITS into arrays.
func (m *Model) FormatTime(nbytes int64) vtime.Duration { return Dur(nbytes, m.FormatBytesPerSec) }

// S3Time models one connection fetching nbytes from the object store.
func (m *Model) S3Time(nbytes int64) vtime.Duration { return Dur(nbytes, m.S3BytesPerSec) }

// S3Fetch models fetching nObjects totalling nbytes over one connection,
// including per-object GET latency.
func (m *Model) S3Fetch(nObjects int, nbytes int64) vtime.Duration {
	return vtime.Duration(nObjects)*m.S3GetLatency + m.S3Time(nbytes)
}

// SchedTime returns the scheduler dispatch cost for one task of sys on a
// cluster with the given node count.
func (m *Model) SchedTime(sys System, nodes int) vtime.Duration {
	return m.SchedPerTask[sys] + vtime.Duration(nodes)*m.StealPerTaskPerNode[sys]
}

// Jitter deterministically perturbs d by up to ±JitterFrac based on key,
// modeling per-task data skew. The same key always yields the same factor.
func (m *Model) Jitter(key string, d vtime.Duration) vtime.Duration {
	if m.JitterFrac <= 0 || d <= 0 {
		return d
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	u := float64(h.Sum64()%1_000_000) / 1_000_000 // [0,1)
	f := 1 - m.JitterFrac + 2*m.JitterFrac*u
	return vtime.Duration(float64(d) * f)
}

// Dur converts nbytes at a bytes-per-second rate to a duration.
func Dur(nbytes int64, bytesPerSec float64) vtime.Duration {
	if nbytes <= 0 || bytesPerSec <= 0 {
		return 0
	}
	return vtime.Duration(float64(nbytes) / bytesPerSec * 1e9)
}
