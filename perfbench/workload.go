package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/storage/vfs"
	"repro/internal/transport"
	"repro/internal/wan"
)

// channel is the one channel every workload writes.
const channel = "bench"

// workload is one traffic shape the benchmark drives.
type workload struct {
	name      string
	nodes     int
	blockSize int
	envSize   int
	// frontends is the number of load frontends (one generator goroutine
	// each).
	frontends int
	// window is the closed-loop window per frontend; zero selects the
	// open loop at rate envelopes per second (split evenly).
	window int
	rate   float64
	// geo places replicas and frontends on four continents (WHEAT).
	geo bool
	// reader runs a catch-up reader beside the writer.
	reader bool
	// crash kills the leader halfway into the measured window and
	// restarts it at three quarters.
	crash          bool
	requestTimeout time.Duration
	// batchTimeout bounds how long the leader waits to fill a consensus
	// batch. lan-bulk-catchup waits longer: its blocks take about 80 ms to
	// fill anyway, and fewer, larger instances keep its fsync and message
	// load low enough that a slow patch of a shared disk does not tip the
	// writer into a growing backlog.
	batchTimeout time.Duration
	warmup       time.Duration
}

// Catch-up reader shape: every readerPeriod, one replay delivers
// readerSpan blocks ending readerLag blocks behind the head, past the
// reader's retained window of readerHistory blocks, so every replayed
// block is fetched from the nodes' durable stores. Back-to-back replays
// would saturate the serving node's egress and grow the writer's backlog
// without bound; the period keeps the shape stable.
const (
	readerSpan    = 10
	readerLag     = 8
	readerHistory = 4
	readerPeriod  = time.Second
)

// blockTimeout only flushes the partial block left when the generators
// stop; under load every block fills long before it.
const blockTimeout = 500 * time.Millisecond

// lan-saturate keeps 1000 envelopes outstanding per frontend, enough that
// the closed loop stays CPU-bound while a shared disk's fsync latency
// swings. On a 2-CPU host, with 200 per frontend the CPUs sat 10-15% idle
// or waiting on I/O and 10 ms added to every fsync cut throughput by a
// third; with 1000, 30 ms added to every fsync moved it by 3%.
var workloads = []*workload{
	{
		name: "lan-saturate", nodes: 4, blockSize: 10, envSize: 200,
		frontends: 2, window: 1000,
		requestTimeout: 5 * time.Minute, batchTimeout: 2 * time.Millisecond,
		warmup: 6 * time.Second,
	},
	{
		name: "lan-bulk-catchup", nodes: 4, blockSize: 100, envSize: 4096,
		frontends: 1, rate: 1200, reader: true,
		requestTimeout: 5 * time.Minute, batchTimeout: 10 * time.Millisecond,
		warmup: 3 * time.Second,
	},
	{
		name: "wan-wheat", nodes: 5, blockSize: 10, envSize: 1024,
		frontends: 2, rate: 1000, geo: true,
		requestTimeout: 5 * time.Minute, batchTimeout: 5 * time.Millisecond,
		warmup: 2 * time.Second,
	},
	{
		name: "lan-leader-crash", nodes: 4, blockSize: 10, envSize: 200,
		frontends: 2, rate: 2000, crash: true,
		requestTimeout: time.Second, batchTimeout: 2 * time.Millisecond,
		warmup: 1500 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Geo placement (Section 6.3 of the paper): replicas in Oregon, Ireland,
// Sydney and Sao Paulo, Virginia as WHEAT's spare; the load frontends in
// Virginia and Sao Paulo.
var (
	geoReplicas  = []wan.Region{wan.Oregon, wan.Ireland, wan.Sydney, wan.SaoPaulo, wan.Virginia}
	geoFrontends = []wan.Region{wan.Virginia, wan.SaoPaulo}
)

// wanJitterPct is the WAN model's uniform delay jitter.
const wanJitterPct = 5

// ledgerCapacity bounds the envelopes one load frontend of the measured
// rig can submit in a run: the open-loop schedule with slack, or a
// closed-loop rate no host this benchmark targets reaches.
func (w *workload) ledgerCapacity(measure time.Duration) int {
	rate := 50000.0
	if w.window == 0 {
		rate = 1.1 * w.rate / float64(w.frontends)
	}
	return int(rate*(w.warmup+measure+2*time.Second).Seconds()) + 2*w.blockSize
}

// loadFE is one load frontend with its generator state, ledger and
// release checker.
type loadFE struct {
	name   string
	fe     *core.Frontend
	gen    *bench.EnvelopeGen
	led    *ledger
	chain  *chainCheck
	blocks chan releasedBlock
	// slots is the closed-loop window: a send takes a slot, the release
	// of one of this frontend's envelopes frees one.
	slots chan struct{}
	// relTimes are the release times of every block, checker-owned.
	relTimes []int64
	// head is one past the highest block number released.
	head    atomic.Uint64
	checked sync.WaitGroup
}

// releasedBlock is a block and the time OnBlock saw it.
type releasedBlock struct {
	b  *fabric.Block
	at int64
}

// releaseBuffer lets the release callback hand blocks to the checker
// without waiting for it; it holds about two seconds of blocks at the
// highest block rate measured here, so the checker never stalls the
// frontend's receive loop.
const releaseBuffer = 4096

// check consumes released blocks: it verifies the chain, records release
// times, and settles every envelope of this frontend in the ledger.
func (l *loadFE) check() {
	defer l.checked.Done()
	for rb := range l.blocks {
		l.chain.add(rb.b)
		l.relTimes = append(l.relTimes, rb.at)
		for _, raw := range rb.b.Envelopes {
			client, seq, ok := bench.EnvelopeSeq(raw)
			if !ok || client != l.name {
				continue
			}
			if l.led.release(seq, rb.at) && l.slots != nil {
				select {
				case <-l.slots:
				default: // a set-up envelope took no slot
				}
			}
		}
		l.head.Store(rb.b.Header.Number + 1)
	}
	l.chain.flush()
}

// send submits the next envelope, due at the given time.
func (l *loadFE) send(due int64) error {
	raw, seq := l.gen.Next()
	if err := l.led.attempt(seq, due); err != nil {
		return err
	}
	start := time.Now().UnixNano()
	st := l.fe.BroadcastRaw(raw)
	l.led.answer(seq, start, time.Now().UnixNano(), st == fabric.StatusSuccess)
	return nil
}

// rig is one running cluster with its frontends.
type rig struct {
	w       *workload
	dir     string
	net     *transport.InProcNetwork
	cluster *core.Cluster
	loads   []*loadFE
	reader  *core.Frontend
	probes  *probes // nil when untraced

	// mu orders the crash workload's KillNode/RestartNode against the
	// sampler's reads of cluster.Nodes.
	mu sync.Mutex
}

// setUp builds a durable cluster in a fresh directory under root, attaches
// the frontends, and returns once the first block is released. The
// returned duration runs from cluster construction to that release. Each
// load frontend's ledger holds capacity envelopes; the ledgers are
// allocated before the clock starts, so their size does not count as
// set-up time.
func setUp(w *workload, seed int64, round int, root string, capacity int, p *probes) (*rig, time.Duration, error) {
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return nil, 0, err
	}
	r := &rig{w: w, dir: dir, probes: p}
	leds := make([]*ledger, w.frontends)
	for i := range leds {
		leds[i] = newLedger(capacity)
	}
	start := time.Now()
	if err := r.build(seed, round, leds); err != nil {
		r.tearDown()
		return nil, 0, err
	}
	first := r.loads[0]
	for i := 0; i < w.blockSize; i++ {
		if err := first.send(time.Now().UnixNano()); err != nil {
			r.tearDown()
			return nil, 0, err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for first.led.delivered.Load() == 0 {
		if time.Now().After(deadline) {
			r.tearDown()
			return nil, 0, fmt.Errorf("%s: no block released within 30s of set-up", w.name)
		}
		time.Sleep(100 * time.Microsecond)
	}
	var firstRelease int64
	for seq := range w.blockSize {
		if at := first.led.released[seq].Load(); at != 0 && (firstRelease == 0 || at < firstRelease) {
			firstRelease = at
		}
	}
	setup := time.Duration(firstRelease - start.UnixNano())
	for first.led.outstanding() > 0 {
		if time.Now().After(deadline) {
			r.tearDown()
			return nil, 0, fmt.Errorf("%s: set-up envelopes not released within 30s", w.name)
		}
		time.Sleep(time.Millisecond)
	}
	return r, setup, nil
}

// build assembles the cluster and frontends. Each set-up round draws its
// own WAN jitter from the seed: rounds sharing one jitter stream form
// their first quorum alike, so their median would be one draw, not
// several.
func (r *rig) build(seed int64, round int, leds []*ledger) error {
	w := r.w
	netCfg := transport.InProcConfig{EgressBytesPerSec: transport.GigabitEthernet}
	feNames := make([]string, w.frontends)
	for i := range feNames {
		feNames[i] = "load-" + strconv.Itoa(i)
	}
	if w.geo {
		placement := make(map[transport.Addr]wan.Region)
		for i, region := range geoReplicas[:w.nodes] {
			placement[consensus.ReplicaID(i).Addr()] = region
		}
		for i, name := range feNames {
			region := geoFrontends[i%len(geoFrontends)]
			placement[transport.Addr(name)] = region
			placement[transport.Addr(name+"-client")] = region
		}
		netCfg.Latency = wan.NewModelSeeded(placement, wanJitterPct, uint64(seed)<<8|uint64(round))
	}
	r.net = transport.NewInProcNetwork(netCfg)

	cfg := core.ClusterConfig{
		Nodes:              w.nodes,
		F:                  1,
		BlockSize:          w.blockSize,
		BlockTimeout:       blockTimeout,
		BatchTimeout:       w.batchTimeout,
		RequestTimeout:     w.requestTimeout,
		CheckpointInterval: 64,
		Network:            r.net,
		DataDir:            r.dir,
	}
	if w.geo {
		replicas := make([]consensus.ReplicaID, w.nodes)
		for i := range replicas {
			replicas[i] = consensus.ReplicaID(i)
		}
		// Binary weights: Vmax for the Oregon leader and the Virginia
		// spare; tentative execution on.
		weights, err := consensus.BinaryWeights(replicas, 1, 1,
			[]consensus.ReplicaID{0, consensus.ReplicaID(w.nodes - 1)})
		if err != nil {
			return err
		}
		cfg.Weights = weights
		cfg.Tentative = true
		cfg.CheckpointInterval = 256
	}
	if p := r.probes; p != nil {
		cfg.Metrics = p.registry
		cfg.NodeFS = func(node int) vfs.FS { return p.storageFS(node) }
		r.net.SetDrop(p.observe)
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	r.cluster = cluster

	for i, name := range feNames {
		fe, err := cluster.NewFrontend(name, false)
		if err != nil {
			return err
		}
		l := &loadFE{
			name:   name,
			fe:     fe,
			gen:    bench.NewEnvelopeGen(channel, name, w.envSize, seed*1000+int64(i)),
			led:    leds[i],
			chain:  newChainCheck(),
			blocks: make(chan releasedBlock, releaseBuffer),
		}
		if w.window > 0 {
			l.slots = make(chan struct{}, w.window)
		}
		l.checked.Add(1)
		go l.check()
		fe.OnBlock(func(b *fabric.Block) {
			l.blocks <- releasedBlock{b: b, at: time.Now().UnixNano()}
		})
		r.loads = append(r.loads, l)
	}
	if w.reader {
		var metrics *obs.FrontendMetrics
		if r.probes != nil {
			metrics = obs.NewFrontendMetrics(r.probes.registry, "shard", "0", "frontend", "reader")
		}
		reader, err := core.NewFrontend(core.FrontendConfig{
			ID:           "reader",
			Replicas:     cluster.Replicas(),
			F:            1,
			Registry:     cluster.Registry,
			HistoryLimit: readerHistory,
			Metrics:      metrics,
		}, r.net)
		if err != nil {
			return err
		}
		r.reader = reader
	}
	return nil
}

// closeFrontends closes every frontend and waits for the release
// checkers to finish; after it the ledgers and chain checks are final.
func (r *rig) closeFrontends() {
	if r.reader != nil {
		r.reader.Close()
		r.reader = nil
	}
	for _, l := range r.loads {
		if l.blocks == nil {
			continue
		}
		l.fe.Close() // waits for the receive loop, so no release follows
		close(l.blocks)
		l.checked.Wait()
		l.blocks = nil
	}
}

// tearDown stops everything and removes the data directory.
func (r *rig) tearDown() {
	r.closeFrontends()
	if r.cluster != nil {
		r.cluster.Stop()
	}
	if r.net != nil {
		r.net.Close()
	}
	os.RemoveAll(r.dir)
}

// node returns node i, or nil while it is down.
func (r *rig) node(i int) *core.OrderingNode {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cluster.Nodes[i]
}

// leaderIndex is the index of the node the cluster expects to lead.
func (r *rig) leaderIndex() int {
	leader := r.cluster.Leader()
	for i, n := range r.cluster.Nodes {
		if n == leader {
			return i
		}
	}
	return 0
}

// dataRoot is where the benchmark keeps its clusters' data directories.
func dataRoot() (string, error) {
	root := filepath.Join(".bench_build", "data")
	return root, os.MkdirAll(root, 0o755)
}
