package nova

import (
	"denova/internal/obs"
)

// Observer carries the nova layer's pre-resolved metrics so operation paths
// never touch the registry map. Op-level histograms (Write/Read/Truncate/GC)
// are recorded whenever an observer is installed; the five write-path step
// histograms and per-step trace events are recorded only when Fine is set
// (obs.TraceFine), keeping the default foreground overhead to two clock
// reads and a few atomic adds per write.
type Observer struct {
	Tracer *obs.Tracer
	Fine   bool

	Write    *obs.Histogram // nova.write: full five-step write
	Read     *obs.Histogram // nova.read
	Truncate *obs.Histogram // nova.truncate
	GC       *obs.Histogram // nova.gc.thorough
	Stage    *obs.Histogram // nova.write.stage: DRAM staging (fast path)
	Relink   *obs.Histogram // nova.write.relink: batched relink commit

	WriteAlloc   *obs.Histogram // step ① (fine only)
	WriteFill    *obs.Histogram // step ② (fine only)
	WriteLog     *obs.Histogram // step ③ (fine only)
	WriteRadix   *obs.Histogram // step ④ (fine only)
	WriteReclaim *obs.Histogram // step ⑤ (fine only)

	RelinkAlloc   *obs.Histogram // relink block allocation (fine only)
	RelinkFill    *obs.Histogram // relink data drain to PM (fine only)
	RelinkLog     *obs.Histogram // relink batched log append+commit (fine only)
	RelinkInstall *obs.Histogram // relink radix install + reclaim (fine only)

	WriteBytes  *obs.Counter
	ReadBytes   *obs.Counter
	StagedBytes *obs.Counter
}

// NewObserver resolves the nova metric set from reg. tracer may be nil.
func NewObserver(reg *obs.Registry, tracer *obs.Tracer, fine bool) *Observer {
	return &Observer{
		Tracer:        tracer,
		Fine:          fine,
		Write:         reg.Histogram("nova.write"),
		Read:          reg.Histogram("nova.read"),
		Truncate:      reg.Histogram("nova.truncate"),
		GC:            reg.Histogram("nova.gc.thorough"),
		Stage:         reg.Histogram("nova.write.stage"),
		Relink:        reg.Histogram("nova.write.relink"),
		WriteAlloc:    reg.Histogram("nova.write.alloc"),
		WriteFill:     reg.Histogram("nova.write.fill"),
		WriteLog:      reg.Histogram("nova.write.log_commit"),
		WriteRadix:    reg.Histogram("nova.write.radix"),
		WriteReclaim:  reg.Histogram("nova.write.reclaim"),
		RelinkAlloc:   reg.Histogram("nova.write.relink.alloc"),
		RelinkFill:    reg.Histogram("nova.write.relink.fill"),
		RelinkLog:     reg.Histogram("nova.write.relink.log_commit"),
		RelinkInstall: reg.Histogram("nova.write.relink.install"),
		WriteBytes:    reg.Counter("nova.write.bytes"),
		ReadBytes:     reg.Counter("nova.read.bytes"),
		StagedBytes:   reg.Counter("nova.write.stage.bytes"),
	}
}

// SetObserver installs (or removes, with nil) the metrics observer. Call
// before the file system takes traffic; installation is not synchronized
// with in-flight operations.
func (fs *FS) SetObserver(o *Observer) { fs.obs = o }

// Observer returns the installed observer (nil when none).
func (fs *FS) Observer() *Observer { return fs.obs }
