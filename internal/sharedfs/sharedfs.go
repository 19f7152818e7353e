// Package sharedfs models a cluster's shared parallel filesystem and the
// node-local storage that the LFM paper contrasts it with (§V-A, §V-D).
//
// The shared filesystem has two contended resources:
//
//   - a metadata server: a k-channel FIFO queueing station; every stat/open
//     during a Python import is a metadata operation, and concurrent imports
//     from many nodes queue here. Prior work ([14,15] in the paper) found
//     this to be the dominant cost of importing large Python stacks at
//     scale, and this model reproduces that behaviour.
//   - aggregate data bandwidth: a fair-shared capacity, optionally capped
//     per client by the node interconnect.
//
// Node-local storage (ephemeral disk, burst buffer) is modeled per node with
// fair-shared bandwidth and effectively free metadata.
package sharedfs

import (
	"fmt"

	"lfm/internal/metrics"
	"lfm/internal/sim"
	"lfm/internal/trace"
)

// Config parameterizes a shared filesystem.
type Config struct {
	// Name labels the filesystem in reports ("lustre", "gpfs", ...).
	Name string
	// MetaChannels is the number of metadata requests served in parallel.
	MetaChannels int
	// MetaOpTime is the service time of a single metadata operation.
	MetaOpTime sim.Time
	// ReadBandwidth and WriteBandwidth are aggregate data rates in bytes/s.
	ReadBandwidth  float64
	WriteBandwidth float64
	// PerClientBandwidth caps a single stream (node NIC), 0 for no cap.
	PerClientBandwidth float64
}

// DefaultConfig returns a mid-sized parallel filesystem: a metadata server
// handling ~8k ops/s and 40 GB/s of aggregate data bandwidth.
func DefaultConfig() Config {
	return Config{
		Name:               "sharedfs",
		MetaChannels:       4,
		MetaOpTime:         150e-6, // 150us per op per channel => ~27k ops/s
		ReadBandwidth:      40e9,
		WriteBandwidth:     25e9,
		PerClientBandwidth: 1.25e9, // 10 Gb/s NIC
	}
}

// FS is a simulated shared filesystem.
type FS struct {
	Config Config

	eng   *sim.Engine
	meta  *sim.Server
	read  *sim.FairShare
	write *sim.FairShare

	// MetaOpsIssued counts total metadata operations for reporting.
	MetaOpsIssued int64

	met *fsMetrics
	tr  *trace.Store

	// disrupt, if set, returns an extra delay imposed before each operation
	// (fault injection: latency spikes and outage windows). Nil means none.
	disrupt func() sim.Time
}

// SetDisruptor installs (or, with nil, removes) a fault-injection hook: the
// returned duration is added in front of every metadata batch, read, and
// write. An outage is modeled by returning the time remaining in the outage
// window; a latency spike by a fixed surcharge.
func (fs *FS) SetDisruptor(fn func() sim.Time) { fs.disrupt = fn }

// delayed defers op by the disruptor's current surcharge, if any.
func (fs *FS) delayed(op func()) {
	if fs.disrupt != nil {
		if d := fs.disrupt(); d > 0 {
			fs.eng.After(d, op)
			return
		}
	}
	op()
}

// SetTrace attaches a span store: every metadata batch, read, and write
// becomes an fs span covering its queueing and transfer time. Nil detaches.
func (fs *FS) SetTrace(st *trace.Store) { fs.tr = st }

// traced wraps a completion continuation so it closes an fs span first. With
// tracing detached it returns done unchanged.
func (fs *FS) traced(kind trace.Kind, detail string, done func()) func() {
	if fs.tr == nil {
		return done
	}
	sp := fs.tr.Begin(trace.Span{
		Kind: kind, Task: -1, Worker: -1, Detail: detail, Start: fs.eng.Now(),
	})
	return func() {
		fs.tr.End(sp, fs.eng.Now(), trace.OutcomeOK, "")
		done()
	}
}

// SetMetrics attaches a metrics registry: queue and bandwidth-share gauges
// are registered immediately (labeled by the filesystem's name) and the op
// and byte counters update from then on. Nil detaches.
func (fs *FS) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		fs.met = nil
		return
	}
	fs.met = newFSMetrics(fs, reg)
}

// fsMetrics holds the filesystem's registry instruments; methods are nil-safe.
type fsMetrics struct {
	metaOps    *metrics.Counter
	readBytes  *metrics.Counter
	writeBytes *metrics.Counter
}

// share is the bandwidth one client currently gets from a fair-shared link.
func share(f *sim.FairShare) float64 {
	n := f.Active()
	if n == 0 {
		return 0
	}
	r := f.Capacity / float64(n)
	if f.PerFlowCap > 0 && r > f.PerFlowCap {
		r = f.PerFlowCap
	}
	return r
}

func newFSMetrics(fs *FS, reg *metrics.Registry) *fsMetrics {
	l := metrics.L("fs", fs.Config.Name)
	reg.Help("sharedfs_meta_queue_depth", "metadata requests queued behind the server's channels")
	reg.Help("sharedfs_meta_busy_seconds", "cumulative metadata service time consumed")
	reg.Help("sharedfs_read_flows", "concurrent read streams")
	reg.Help("sharedfs_write_flows", "concurrent write streams")
	reg.Help("sharedfs_read_share_bytes", "read bandwidth one client currently receives, bytes/s")
	reg.Help("sharedfs_write_share_bytes", "write bandwidth one client currently receives, bytes/s")
	reg.Help("sharedfs_meta_ops_total", "metadata operations issued")
	reg.Help("sharedfs_read_bytes_total", "bytes read from the filesystem")
	reg.Help("sharedfs_write_bytes_total", "bytes written to the filesystem")
	reg.GaugeFunc("sharedfs_meta_queue_depth", func() float64 { return float64(fs.meta.QueueLen()) }, l)
	reg.GaugeFunc("sharedfs_meta_busy_seconds", func() float64 { return float64(fs.meta.BusyTime) }, l)
	reg.GaugeFunc("sharedfs_read_flows", func() float64 { return float64(fs.read.Active()) }, l)
	reg.GaugeFunc("sharedfs_write_flows", func() float64 { return float64(fs.write.Active()) }, l)
	reg.GaugeFunc("sharedfs_read_share_bytes", func() float64 { return share(fs.read) }, l)
	reg.GaugeFunc("sharedfs_write_share_bytes", func() float64 { return share(fs.write) }, l)
	return &fsMetrics{
		metaOps:    reg.Counter("sharedfs_meta_ops_total", l),
		readBytes:  reg.Counter("sharedfs_read_bytes_total", l),
		writeBytes: reg.Counter("sharedfs_write_bytes_total", l),
	}
}

func (fm *fsMetrics) onMeta(ops int) {
	if fm != nil {
		fm.metaOps.Add(float64(ops))
	}
}

func (fm *fsMetrics) onRead(n int64) {
	if fm != nil {
		fm.readBytes.Add(float64(n))
	}
}

func (fm *fsMetrics) onWrite(n int64) {
	if fm != nil {
		fm.writeBytes.Add(float64(n))
	}
}

// New returns a shared filesystem attached to the engine.
func New(eng *sim.Engine, cfg Config) *FS {
	if cfg.MetaChannels < 1 || cfg.MetaOpTime <= 0 {
		panic("sharedfs: invalid metadata configuration")
	}
	read := sim.NewFairShare(eng, cfg.ReadBandwidth)
	read.PerFlowCap = cfg.PerClientBandwidth
	write := sim.NewFairShare(eng, cfg.WriteBandwidth)
	write.PerFlowCap = cfg.PerClientBandwidth
	return &FS{
		Config: cfg,
		eng:    eng,
		meta:   sim.NewServer(eng, cfg.MetaChannels),
		read:   read,
		write:  write,
	}
}

// Metadata performs ops metadata operations as one batched client request
// (one import's worth of stats/opens). The request occupies a server channel
// for ops*MetaOpTime and queues behind other clients — so per-client latency
// grows with concurrent offered load, which is exactly the Figure 4 effect.
func (fs *FS) Metadata(ops int, done func()) {
	if ops < 0 {
		panic("sharedfs: negative metadata ops")
	}
	fs.MetaOpsIssued += int64(ops)
	fs.met.onMeta(ops)
	done = fs.traced(trace.KindFSMeta, fmt.Sprintf("%d ops", ops), done)
	fs.delayed(func() { fs.meta.Request(sim.Time(ops)*fs.Config.MetaOpTime, done) })
}

// Read transfers n bytes from the filesystem to one client.
func (fs *FS) Read(n int64, done func()) {
	fs.met.onRead(n)
	done = fs.traced(trace.KindFSRead, fmt.Sprintf("%d B", n), done)
	fs.delayed(func() { fs.read.Transfer(float64(n), done) })
}

// Write transfers n bytes from one client to the filesystem.
func (fs *FS) Write(n int64, done func()) {
	fs.met.onWrite(n)
	done = fs.traced(trace.KindFSWrite, fmt.Sprintf("%d B", n), done)
	fs.delayed(func() { fs.write.Transfer(float64(n), done) })
}

// LocalDisk models one node's local storage (SSD or ramdisk): bandwidth is
// fair-shared among that node's tasks only, and metadata operations are
// cheap and uncontended across nodes.
type LocalDisk struct {
	eng        *sim.Engine
	read       *sim.FairShare
	write      *sim.FairShare
	metaOpTime sim.Time
}

// LocalDiskConfig parameterizes node-local storage.
type LocalDiskConfig struct {
	ReadBandwidth  float64  // bytes/s
	WriteBandwidth float64  // bytes/s
	MetaOpTime     sim.Time // per local metadata op (no cross-node queueing)
}

// DefaultLocalDisk returns a node-local NVMe-class device.
func DefaultLocalDisk() LocalDiskConfig {
	return LocalDiskConfig{
		ReadBandwidth:  2e9,
		WriteBandwidth: 1.2e9,
		MetaOpTime:     15e-6,
	}
}

// NewLocalDisk returns a node-local disk attached to the engine.
func NewLocalDisk(eng *sim.Engine, cfg LocalDiskConfig) *LocalDisk {
	return &LocalDisk{
		eng:        eng,
		read:       sim.NewFairShare(eng, cfg.ReadBandwidth),
		write:      sim.NewFairShare(eng, cfg.WriteBandwidth),
		metaOpTime: cfg.MetaOpTime,
	}
}

// Read transfers n bytes from local disk.
func (d *LocalDisk) Read(n int64, done func()) { d.read.Transfer(float64(n), done) }

// Write transfers n bytes to local disk.
func (d *LocalDisk) Write(n int64, done func()) { d.write.Transfer(float64(n), done) }

// Metadata performs ops local metadata operations; they serialize only with
// this node's own activity, modeled as plain elapsed time.
func (d *LocalDisk) Metadata(ops int, done func()) {
	d.eng.After(sim.Time(ops)*d.metaOpTime, done)
}
