package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage/vfs"
	"repro/internal/transport"
)

// probes are the traced run's outside-in instruments: a timing vfs.FS
// under every node's storage, a pass-through transport observer, the
// obs registry the cluster reports its stage histograms into, and the
// storage spans. Everything counts only while measuring is set, so the
// numbers cover exactly the measured window. The untraced run has no
// probes at all.
type probes struct {
	measuring atomic.Bool
	registry  *obs.Registry

	// Transport, by message type (types >= maxMsgType share the last slot).
	msgs, bytes [maxMsgType]atomic.Uint64

	// Storage totals across nodes.
	syncs, syncNs         atomic.Int64
	writeBytes, readBytes atomic.Int64
	spanMu                sync.Mutex
	spans                 []span
	droppedSpans          int
}

const maxMsgType = 128

// maxSpans caps the in-memory span log (about 100 MB).
const maxSpans = 3 << 20

// Span kinds.
const (
	spanEnvelope  uint8 = iota // due -> released at the load frontend
	spanBroadcast              // BroadcastRaw call, child of spanEnvelope
	spanSync                   // storage Sync / Datasync / SyncDir
	spanWrite                  // storage Write / WriteAt
	spanRead                   // storage Read / ReadAt
)

var spanNames = [...]string{"envelope", "broadcast", "sync", "write", "read"}

// span is one timed call. For envelope spans, node is the load frontend
// and id the envelope sequence; a broadcast span shares its envelope's id.
type span struct {
	kind  uint8
	node  int16
	id    uint64
	start int64 // unix ns
	dur   int64 // ns
	bytes int64
}

func newProbes() *probes {
	return &probes{registry: obs.NewRegistry(), spans: make([]span, 0, 1<<16)}
}

// observe is the transport drop predicate: it counts every message by
// type and size, and never drops one.
func (p *probes) observe(m transport.Message) bool {
	if !p.measuring.Load() {
		return false
	}
	t := int(m.Type)
	if t >= maxMsgType {
		t = maxMsgType - 1
	}
	p.msgs[t].Add(1)
	p.bytes[t].Add(uint64(m.Size()))
	return false
}

// msgTotals sums messages and bytes over types [lo, hi).
func (p *probes) msgTotals(lo, hi int) (msgs, bytes uint64) {
	for t := lo; t < hi && t < maxMsgType; t++ {
		msgs += p.msgs[t].Load()
		bytes += p.bytes[t].Load()
	}
	return msgs, bytes
}

func (p *probes) record(s span) {
	p.spanMu.Lock()
	if len(p.spans) < maxSpans {
		p.spans = append(p.spans, s)
	} else {
		p.droppedSpans++
	}
	p.spanMu.Unlock()
}

// storageCall times one storage call and records its span.
func (p *probes) storageCall(kind uint8, node int, start time.Time, n int) {
	if !p.measuring.Load() {
		return
	}
	dur := time.Since(start).Nanoseconds()
	switch kind {
	case spanSync:
		p.syncs.Add(1)
		p.syncNs.Add(dur)
	case spanWrite:
		p.writeBytes.Add(int64(n))
	case spanRead:
		p.readBytes.Add(int64(n))
	}
	p.record(span{kind: kind, node: int16(node), start: start.UnixNano(), dur: dur, bytes: int64(n)})
}

// storageFS returns node i's timing filesystem over the real one.
func (p *probes) storageFS(node int) vfs.FS {
	return &timedFS{FS: vfs.OS{}, p: p, node: node}
}

// timedFS wraps a vfs.FS, timing every call that moves data or syncs.
type timedFS struct {
	vfs.FS
	p    *probes
	node int
}

func (t *timedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timedFS) Open(name string) (vfs.File, error) {
	f, err := t.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := t.FS.ReadFile(name)
	t.p.storageCall(spanRead, t.node, start, len(b))
	return b, err
}

func (t *timedFS) SyncDir(dir string) error {
	start := time.Now()
	err := t.FS.SyncDir(dir)
	t.p.storageCall(spanSync, t.node, start, 0)
	return err
}

type timedFile struct {
	vfs.File
	fs *timedFS
}

func (f *timedFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	f.fs.p.storageCall(spanWrite, f.fs.node, start, n)
	return n, err
}

func (f *timedFile) WriteAt(b []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(b, off)
	f.fs.p.storageCall(spanWrite, f.fs.node, start, n)
	return n, err
}

func (f *timedFile) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Read(b)
	f.fs.p.storageCall(spanRead, f.fs.node, start, n)
	return n, err
}

func (f *timedFile) ReadAt(b []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(b, off)
	f.fs.p.storageCall(spanRead, f.fs.node, start, n)
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.p.storageCall(spanSync, f.fs.node, start, 0)
	return err
}

func (f *timedFile) Datasync() error {
	start := time.Now()
	err := f.File.Datasync()
	f.fs.p.storageCall(spanSync, f.fs.node, start, 0)
	return err
}

// nodeSample is one snapshot of a node's counters. Consensus instances
// are counted by the last delivered sequence number: under WHEAT's
// tentative execution instances execute on their write certificate and
// Stats().Decided stays 0.
type nodeSample struct {
	delivered int64
	ops       uint64
	lc        int64
	dropped   uint64
	blocks    uint64
	envelopes uint64
	rollbacks uint64
}

func sampleNode(n *core.OrderingNode) nodeSample {
	if n == nil {
		return nodeSample{}
	}
	cs := n.Replica().Stats()
	ns := n.Stats()
	return nodeSample{
		delivered: cs.LastDelivered, ops: cs.DeliveredOps, lc: cs.LeaderChanges,
		dropped: cs.DroppedReqs, blocks: ns.BlocksCut, envelopes: ns.EnvelopesOrdered,
		rollbacks: ns.Rollbacks,
	}
}

// sampler periodically reads every live node's persist lag (blocks in
// its ledger minus its persist watermark) and the load frontends'
// in-flight envelopes.
type sampler struct {
	persistLag []float64
	inflight   []float64
}

// samplePeriod is the sampler's tick.
const samplePeriod = 10 * time.Millisecond

func (s *sampler) run(r *rig, stop <-chan struct{}) {
	t := time.NewTicker(samplePeriod)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if !r.probes.measuring.Load() {
			continue
		}
		for i := range r.w.nodes {
			n := r.node(i)
			if n == nil {
				continue
			}
			led := n.Ledger(channel)
			if led == nil {
				continue
			}
			h, wm := led.Height(), n.PersistWatermark(channel)
			lag := 0.0
			if h > wm {
				lag = float64(h - wm)
			}
			s.persistLag = append(s.persistLag, lag)
		}
		var inflight int64
		for _, l := range r.loads {
			inflight += l.led.outstanding()
		}
		s.inflight = append(s.inflight, float64(inflight))
	}
}

// stageFamilies are the obs stage histograms read as a cross-check.
var stageFamilies = []struct{ metric, family string }{
	{"stage.decide_ms_p50", "repro_stage_decide_seconds"},
	{"stage.fsync_ms_p50", "repro_stage_fsync_seconds"},
	{"stage.disseminate_ms_p50", "repro_stage_disseminate_seconds"},
	{"stage.deliver_ms_p50", "repro_stage_deliver_seconds"},
}

// histSnapshot merges every point of each stage family.
type histSnapshot map[string]obs.Point

func (p *probes) stageSnapshot() histSnapshot {
	snap := make(histSnapshot)
	for _, fam := range p.registry.Gather() {
		var merged obs.Point
		for _, pt := range fam.Points {
			if len(pt.Counts) == 0 {
				continue
			}
			if merged.Counts == nil {
				merged.Bounds = pt.Bounds
				merged.Counts = make([]uint64, len(pt.Counts))
			}
			if len(pt.Counts) != len(merged.Counts) {
				continue
			}
			for i, c := range pt.Counts {
				merged.Counts[i] += c
			}
		}
		snap[fam.Name] = merged
	}
	return snap
}

// windowMedianMs is a family's median, in ms, over the observations made
// between two snapshots.
func windowMedianMs(before, after histSnapshot, family string) float64 {
	a := after[family]
	if a.Counts == nil {
		return 0
	}
	b := before[family]
	diff := obs.Point{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts))}
	var total uint64
	for i, c := range a.Counts {
		if i < len(b.Counts) {
			c -= b.Counts[i]
		}
		diff.Counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	return diff.Quantile(0.5) * 1000
}

// writeSpans writes the span log as CSV, start times relative to base.
func writeSpans(path string, spans []span, base int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "kind,node,id,start_us,dur_us,bytes")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%.1f,%.1f,%d\n", spanNames[s.kind], s.node, s.id,
			float64(s.start-base)/1e3, float64(s.dur)/1e3, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
