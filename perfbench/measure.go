package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
)

// setupRounds is how many clusters an untraced run builds to time set-up;
// the last one is measured and setup_s is the median.
const setupRounds = 11

// drainTimeout bounds the wait, after the generators stop, for every
// acknowledged envelope to come back in a released block.
const drainTimeout = 30 * time.Second

// The release rate and the latency percentiles are medians over
// sliceCount equal parts of the measured window, so a burst of host noise
// (a slow fsync streak, CPU steal) moves only the parts it falls in; each
// part needs minSamples latencies.
const (
	sliceCount = 12
	minSamples = 1000
)

// lateAfter marks an open-loop envelope as sent late: more than two ticks
// after it was due.
const lateAfter = 2 * time.Millisecond

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int // the number of observations behind the value; 0 when a count or ratio
}

// outcome is everything one run reports.
type outcome struct {
	endToEnd  []metric
	perLayer  []metric
	extra     []metric // workload-specific end-to-end figures, printed in both modes
	attempted int
	failed    int
	problems  []string
	samples   map[string]int
}

// window is the measured interval, unix ns.
type window struct{ start, end int64 }

// slices cuts the window into n equal parts.
func (w window) slices(n int) []window {
	out := make([]window, n)
	for k := range out {
		out[k] = window{start: w.start + int64(k)*(w.end-w.start)/int64(n), end: w.start + int64(k+1)*(w.end-w.start)/int64(n)}
	}
	return out
}

func (w window) has(t int64) bool { return t >= w.start && t < w.end }
func (w window) seconds() float64 { return float64(w.end-w.start) / 1e9 }

// runWorkload sets up, measures and checks one workload.
func runWorkload(w *workload, seed int64, measure time.Duration, traced bool) (*outcome, error) {
	root, err := dataRoot()
	if err != nil {
		return nil, err
	}
	rounds := setupRounds
	if traced {
		rounds = 1 // setup_s is an untraced metric
	}
	var setups []float64
	var r *rig
	for i := 0; i < rounds; i++ {
		var p *probes
		if traced {
			p = newProbes()
		}
		// The measured rig, built last, is round 0 in both modes. Only it
		// runs past its first block, so only it gets a full ledger.
		capacity := 2 * w.blockSize
		if i == rounds-1 {
			capacity = w.ledgerCapacity(measure)
		}
		rr, d, err := setUp(w, seed, rounds-1-i, root, capacity, p)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < rounds-1 {
			rr.tearDown()
			continue
		}
		r = rr
	}
	defer r.tearDown()
	out, err := r.drive(measure, traced)
	if err != nil {
		return nil, err
	}
	if !traced {
		out.endToEnd = append(out.endToEnd, metric{name: "setup_s", value: median(setups), unit: "s", samples: len(setups)})
	}
	out.samples["setup"] = len(setups)
	return out, nil
}

// crashPlan records the crash workload's events.
type crashPlan struct {
	victim           int
	killAt           int64
	restartAt        int64
	catchupMs        float64
	catchupReached   bool
	catchupHeadBlock uint64
}

// drive runs the generators through warm-up and the measured window,
// drains, closes the frontends, and computes every metric.
func (r *rig) drive(measure time.Duration, traced bool) (*outcome, error) {
	w := r.w
	stop := make(chan struct{})
	errs := make(chan error, len(r.loads)+1)
	var wg sync.WaitGroup
	t0 := time.Now()
	win := window{start: t0.Add(w.warmup).UnixNano()}
	win.end = win.start + measure.Nanoseconds()

	for i, l := range r.loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.generate(i, l, t0, stop); err != nil {
				errs <- err
			}
		}()
	}
	var rd *catchupReader
	if w.reader {
		rd = &catchupReader{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.run(r, stop)
		}()
	}
	var smp sampler
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	if traced {
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			smp.run(r, samplerStop)
		}()
	}

	sleepUntil(win.start)
	before := r.sampleNodes()
	var stagesBefore histSnapshot
	if traced {
		stagesBefore = r.probes.stageSnapshot()
		r.probes.measuring.Store(true)
	}
	var crash *crashPlan
	catchupDone := make(chan struct{})
	if w.crash {
		crash = &crashPlan{victim: r.leaderIndex()}
		sleepUntil(win.start + measure.Nanoseconds()/2)
		r.mu.Lock()
		crash.killAt = time.Now().UnixNano()
		r.cluster.KillNode(crash.victim)
		r.mu.Unlock()
		sleepUntil(win.start + 3*measure.Nanoseconds()/4)
		crash.catchupHeadBlock = r.headWatermark(crash.victim)
		r.mu.Lock()
		crash.restartAt = time.Now().UnixNano()
		err := r.cluster.RestartNode(crash.victim)
		r.mu.Unlock()
		if err != nil {
			close(stop)
			wg.Wait()
			close(samplerStop)
			samplerWG.Wait()
			return nil, fmt.Errorf("restart node %d: %w", crash.victim, err)
		}
		if traced {
			go r.watchCatchup(crash, stop, catchupDone)
		} else {
			close(catchupDone)
		}
	} else {
		close(catchupDone)
	}
	sleepUntil(win.end)
	var stagesAfter histSnapshot
	if traced {
		r.probes.measuring.Store(false)
		stagesAfter = r.probes.stageSnapshot()
	}
	after := r.sampleNodes()
	close(stop)
	wg.Wait()
	close(samplerStop)
	samplerWG.Wait()
	<-catchupDone

	deadline := time.Now().Add(drainTimeout)
	for r.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	r.closeFrontends()

	out := &outcome{samples: make(map[string]int)}
	close(errs)
	for err := range errs {
		out.problems = append(out.problems, "generator: "+err.Error())
	}
	r.checkOutputs(out, rd)

	// End to end.
	lat, released := r.latencies(win)
	out.samples["latency"] = len(lat)
	rates := r.releaseRates(win, sliceCount)
	var p50s, p99s []float64
	for _, sub := range win.slices(sliceCount) {
		sl, _ := r.latencies(sub)
		if len(sl) < minSamples {
			out.problems = append(out.problems, fmt.Sprintf("only %d latency samples in a slice (need %d)", len(sl), minSamples))
		}
		p50s = append(p50s, percentile(sl, 50))
		p99s = append(p99s, percentile(sl, 99))
	}
	txPerS, p50, p99 := median(rates), median(p50s), median(p99s)
	if crash != nil {
		// The outage is one event: its tail shows only in the 99th
		// percentile of the whole window. The slices it and the restart
		// touch are a minority, so the median stays the LAN latency at
		// moderate load.
		p99 = percentile(lat, 99)
	}
	e2e := []metric{
		{name: "tx_per_s", value: txPerS, unit: "1/s", samples: released},
		{name: "latency_p50_ms", value: p50, unit: "ms", samples: len(lat)},
		{name: "latency_p99_ms", value: p99, unit: "ms", samples: len(lat)},
	}
	if out.attempted > 0 {
		out.extra = append(out.extra, metric{name: "failed_frac", value: float64(out.failed) / float64(out.attempted), unit: "ratio", samples: out.attempted})
	}
	var replayRate float64
	var replayedInWin int
	if rd != nil {
		replayRate, replayedInWin = rd.rate(win)
		out.samples["replays"] = len(rd.replays)
		out.extra = append(out.extra, metric{name: "replay_blocks_per_s", value: replayRate, unit: "1/s", samples: replayedInWin})
	}
	var outage float64
	leader := r.leaderIndex()
	if crash != nil {
		outage, leader = r.outage(crash.killAt, win), crash.victim
		out.extra = append(out.extra, metric{name: "outage_ms", value: outage, unit: "ms", samples: 1})
	}
	ref := (leader + 1) % w.nodes
	lc := after[ref].lc - before[ref].lc
	if !w.crash && lc != 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d leader changes on a fault-free workload", lc))
	}

	if !traced {
		out.endToEnd = e2e
		return out, nil
	}

	// Per layer (traced run only).
	p := r.probes
	secs := win.seconds()
	decided := float64(after[ref].delivered - before[ref].delivered)
	blocks := float64(after[ref].blocks - before[ref].blocks)
	envs := float64(after[ref].envelopes - before[ref].envelopes)
	var dropped, rollbacks float64
	for i := range after {
		if crash != nil && i == crash.victim {
			continue
		}
		dropped += float64(after[i].dropped - before[i].dropped)
		rollbacks += float64(after[i].rollbacks - before[i].rollbacks)
	}
	consMsgs, _ := p.msgTotals(0, 64)
	allMsgs, allBytes := p.msgTotals(0, maxMsgType)
	_, fetchReqBytes := p.msgTotals(int(core.MsgFetchRequest), int(core.MsgFetchRequest)+1)
	_, fetchRespBytes := p.msgTotals(int(core.MsgFetchResponse), int(core.MsgFetchResponse)+1)
	_, coreBytes := p.msgTotals(64, maxMsgType)
	fetchBytes := float64(fetchReqBytes + fetchRespBytes)
	dissemination := float64(coreBytes) - fetchBytes

	late, bcast, envSelf := r.generatorTimes(win)
	var lateCount int
	for _, v := range late {
		if v > float64(lateAfter)/1e6 {
			lateCount++
		}
	}
	p.spanMu.Lock()
	storage, droppedSpans := p.spans, p.droppedSpans
	p.spanMu.Unlock()
	syncs, storageSelf := storageSpans(storage)
	catchup := 0.0
	if crash != nil {
		catchup = crash.catchupMs
		if !crash.catchupReached {
			out.problems = append(out.problems, "restarted node never caught up to the head")
		}
	}

	out.perLayer = []metric{
		{name: "gen.late_frac", value: ratio(float64(lateCount), float64(len(late))), unit: "ratio", samples: len(late)},
		{name: "gen.late_ms_p99", value: percentile(late, 99), unit: "ms", samples: len(late)},
		{name: "frontend.broadcast_us_p50", value: percentile(bcast, 50) * 1000, unit: "us", samples: len(bcast)},
		{name: "frontend.broadcast_us_p99", value: percentile(bcast, 99) * 1000, unit: "us", samples: len(bcast)},
		{name: "frontend.inflight_mean", value: mean(smp.inflight), unit: "count", samples: len(smp.inflight)},
		{name: "consensus.decisions_per_s", value: decided / secs, unit: "1/s"},
		{name: "consensus.ops_per_decision", value: ratio(float64(after[ref].ops-before[ref].ops), decided), unit: "count"},
		{name: "consensus.msgs_per_decision", value: ratio(float64(consMsgs), decided), unit: "count"},
		{name: "consensus.leader_changes", value: float64(lc), unit: "count"},
		{name: "consensus.dropped_reqs", value: dropped, unit: "count"},
		{name: "core.blocks_per_s", value: blocks / secs, unit: "1/s"},
		{name: "core.envs_per_block", value: ratio(envs, blocks), unit: "count"},
		{name: "core.persist_lag_blocks_p99", value: percentile(smp.persistLag, 99), unit: "count", samples: len(smp.persistLag)},
		{name: "core.rollbacks", value: rollbacks, unit: "count"},
		{name: "core.restart_catchup_ms", value: catchup, unit: "ms"},
		{name: "transport.msgs_per_block", value: ratio(float64(allMsgs), blocks), unit: "count"},
		{name: "transport.bytes_per_block", value: ratio(float64(allBytes), blocks), unit: "B"},
		{name: "transport.dissemination_bytes_per_block", value: ratio(dissemination, blocks), unit: "B"},
		{name: "transport.fetch_bytes_per_replayed_block", value: ratio(fetchBytes, float64(replayedInWin)), unit: "B"},
		{name: "storage.syncs_per_block", value: ratio(float64(p.syncs.Load()), blocks), unit: "count"},
		{name: "storage.sync_ms_p50", value: percentile(syncs, 50), unit: "ms", samples: len(syncs)},
		{name: "storage.sync_ms_p99", value: percentile(syncs, 99), unit: "ms", samples: len(syncs)},
		{name: "storage.sync_busy_frac", value: float64(p.syncNs.Load()) / 1e9 / (secs * float64(w.nodes)), unit: "ratio"},
		{name: "storage.write_bytes_per_env_byte", value: ratio(float64(p.writeBytes.Load()), envs*float64(w.envSize)*float64(w.nodes)), unit: "ratio"},
		{name: "storage.read_bytes_per_replayed_block", value: ratio(float64(p.readBytes.Load()), float64(replayedInWin)), unit: "B"},
	}
	for _, sf := range stageFamilies {
		out.perLayer = append(out.perLayer, metric{name: sf.metric, value: windowMedianMs(stagesBefore, stagesAfter, sf.family), unit: "ms"})
	}
	out.perLayer = append(out.perLayer,
		metric{name: "span.envelope_self_ms_mean", value: mean(envSelf), unit: "ms", samples: len(envSelf)},
		metric{name: "span.broadcast_self_us_mean", value: mean(bcast) * 1000, unit: "us", samples: len(bcast)},
		metric{name: "span.storage_self_ms_per_block", value: ratio(storageSelf, blocks), unit: "ms"},
		metric{name: "trace.tx_per_s", value: txPerS, unit: "1/s", samples: released},
		metric{name: "trace.latency_p50_ms", value: p50, unit: "ms", samples: len(lat)},
		metric{name: "trace.latency_p99_ms", value: p99, unit: "ms", samples: len(lat)},
	)
	// The workload-specific end-to-end figures ride along so the traced
	// run can be read beside them; zero where the workload has none.
	out.perLayer = append(out.perLayer,
		metric{name: "reader.replay_blocks_per_s", value: replayRate, unit: "1/s"},
		metric{name: "recovery.outage_ms", value: outage, unit: "ms"},
	)
	if droppedSpans > 0 {
		out.problems = append(out.problems, fmt.Sprintf("span log overflowed: %d spans dropped", droppedSpans))
	}
	spans := append(slices.Clip(storage), r.envelopeSpans(win)...)
	path := filepath.Join(".bench_build", "trace", w.name+".csv")
	if err := writeSpans(path, spans, win.start); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	out.samples["spans"] = len(spans)
	return out, nil
}

// generate drives one load frontend until stop: the closed loop keeps
// window envelopes outstanding; the open loop wakes on a 1 ms ticker and
// sends every envelope that is due, the frontends' schedules interleaved.
func (r *rig) generate(i int, l *loadFE, t0 time.Time, stop <-chan struct{}) error {
	w := r.w
	if w.window > 0 {
		for {
			select {
			case l.slots <- struct{}{}:
			case <-stop:
				return nil
			}
			if err := l.send(time.Now().UnixNano()); err != nil {
				return err
			}
		}
	}
	period := float64(time.Second) * float64(w.frontends) / w.rate
	base := t0.UnixNano() + int64(period*float64(i)/float64(w.frontends))
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var k int64
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		now := time.Now().UnixNano()
		for due := base + int64(period*float64(k)); due <= now; due = base + int64(period*float64(k)) {
			if err := l.send(due); err != nil {
				return err
			}
			k++
		}
	}
}

// catchupReader replays a fixed span behind the head, one replay every
// readerPeriod (back to back when a replay overruns its slot).
type catchupReader struct {
	got     []replayed
	replays []replayRun
	err     error
}

// replayRun is one completed replay.
type replayRun struct {
	start, end int64 // unix ns from the Deliver call to the stream's close
	blocks     int
}

func (c *catchupReader) run(r *rig, stop <-chan struct{}) {
	src := r.loads[0]
	next := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(next)):
		}
		head := src.head.Load()
		if head < readerSpan+readerLag+1 {
			next = time.Now().Add(10 * time.Millisecond)
			continue
		}
		next = next.Add(readerPeriod)
		last := head - 1 - readerLag
		first := last + 1 - readerSpan
		start := time.Now().UnixNano()
		stream, err := r.reader.Deliver(channel, fabric.DeliverFrom(first).Through(last))
		if err != nil {
			c.err = err
			return
		}
		n := 0
	recv:
		for {
			select {
			case b, ok := <-stream.Blocks():
				if !ok {
					break recv
				}
				c.got = append(c.got, replayed{number: b.Header.Number, hash: b.Header.Hash()})
				n++
			case <-stop:
				stream.Cancel()
				return
			}
		}
		if err := stream.Err(); err != nil {
			c.err = fmt.Errorf("replay %d..%d: %w", first, last, err)
			return
		}
		if n != readerSpan {
			c.err = fmt.Errorf("replay %d..%d returned %d blocks", first, last, n)
			return
		}
		c.replays = append(c.replays, replayRun{start: start, end: time.Now().UnixNano(), blocks: n})
	}
}

// rate is the blocks replayed per second spent replaying, over the
// replays that started in the window, and how many blocks that is.
func (c *catchupReader) rate(win window) (perS float64, blocks int) {
	var busy int64
	for _, rr := range c.replays {
		if win.has(rr.start) {
			blocks += rr.blocks
			busy += rr.end - rr.start
		}
	}
	return ratio(float64(blocks), float64(busy)/1e9), blocks
}

// sampleNodes snapshots every node's counters.
func (r *rig) sampleNodes() []nodeSample {
	out := make([]nodeSample, r.w.nodes)
	for i := range out {
		out[i] = sampleNode(r.node(i))
	}
	return out
}

// headWatermark is the highest persist watermark among the other nodes.
func (r *rig) headWatermark(except int) uint64 {
	var head uint64
	for i := range r.w.nodes {
		if n := r.node(i); i != except && n != nil {
			head = max(head, n.PersistWatermark(channel))
		}
	}
	return head
}

// watchCatchup times the restarted node until its persist watermark
// reaches the head the others had when it restarted.
func (r *rig) watchCatchup(c *crashPlan, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		if n := r.node(c.victim); n != nil && n.PersistWatermark(channel) >= c.catchupHeadBlock {
			c.catchupMs = float64(time.Now().UnixNano()-c.restartAt) / 1e6
			c.catchupReached = true
			return
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

func (r *rig) outstanding() int64 {
	var n int64
	for _, l := range r.loads {
		n += l.led.outstanding()
	}
	return n
}

// checkOutputs runs every correctness check once the frontends are
// closed: each load frontend's chain verifies, every acknowledged
// envelope was released exactly once, the frontends agree on every
// header hash, and every replayed block matches its live copy.
func (r *rig) checkOutputs(out *outcome, rd *catchupReader) {
	for _, l := range r.loads {
		if l.chain.err != nil {
			out.problems = append(out.problems, fmt.Sprintf("%s: chain: %v", l.name, l.chain.err))
		}
		rep := l.led.verify()
		out.attempted += rep.attempted
		out.failed += rep.failed()
		if err := rep.err(); err != nil {
			out.problems = append(out.problems, fmt.Sprintf("%s: %v", l.name, err))
		}
	}
	for _, l := range r.loads[1:] {
		if err := sameHashes(r.loads[0].chain.hashes, l.chain.hashes); err != nil {
			out.problems = append(out.problems, fmt.Sprintf("%s vs %s: %v", r.loads[0].name, l.name, err))
		}
	}
	if rd != nil {
		if rd.err != nil {
			out.problems = append(out.problems, "reader: "+rd.err.Error())
		}
		if len(rd.replays) == 0 {
			out.problems = append(out.problems, "reader: no replay completed")
		}
		if err := checkReplays(r.loads[0].chain.hashes, rd.got); err != nil {
			out.problems = append(out.problems, "reader: "+err.Error())
		}
	}
}

// latencies returns the due-to-release latency (ms) of every envelope due
// in the window, and how many envelopes were released in it.
func (r *rig) latencies(win window) (lat []float64, released int) {
	for _, l := range r.loads {
		n := int(l.led.attempted.Load())
		for seq := 0; seq < n; seq++ {
			rel := l.led.released[seq].Load()
			if win.has(rel) {
				released++
			}
			if due := l.led.due[seq].Load(); win.has(due) && rel != 0 {
				lat = append(lat, float64(rel-due)/1e6)
			}
		}
	}
	return lat, released
}

// releaseRates is the load frontends' envelope release rate in each of n
// equal slices of the window. A slice counts from the first release at or
// after its start to the first at or after its end, so every block, and
// every burst of blocks a WAN quorum releases together, falls in exactly
// one slice, and the rate is not rounded to whole blocks.
func (r *rig) releaseRates(win window, n int) []float64 {
	var times []int64
	for _, l := range r.loads {
		for seq := range int(l.led.attempted.Load()) {
			if rel := l.led.released[seq].Load(); rel >= win.start {
				times = append(times, rel)
			}
		}
	}
	slices.Sort(times)
	rates := make([]float64, n)
	for k, sub := range win.slices(n) {
		i, _ := slices.BinarySearch(times, sub.start)
		j, _ := slices.BinarySearch(times, sub.end)
		j = min(j, len(times)-1)
		if j > i {
			rates[k] = float64(j-i) / (float64(times[j]-times[i]) / 1e9)
		}
	}
	return rates
}

// generatorTimes returns, for envelopes due in the window, how late each
// was sent (ms), how long its BroadcastRaw took (ms), and its envelope
// span's self time: due-to-release minus the BroadcastRaw child (ms).
func (r *rig) generatorTimes(win window) (late, bcast, self []float64) {
	for _, l := range r.loads {
		n := int(l.led.attempted.Load())
		for seq := 0; seq < n; seq++ {
			due := l.led.due[seq].Load()
			if !win.has(due) {
				continue
			}
			sendAt, sendDone := l.led.sendAt[seq].Load(), l.led.sendDone[seq].Load()
			late = append(late, float64(sendAt-due)/1e6)
			bcast = append(bcast, float64(sendDone-sendAt)/1e6)
			if rel := l.led.released[seq].Load(); rel != 0 {
				self = append(self, float64((rel-due)-(sendDone-sendAt))/1e6)
			}
		}
	}
	return late, bcast, self
}

// envelopeSpans turns the ledgers into envelope and broadcast spans.
func (r *rig) envelopeSpans(win window) []span {
	var spans []span
	for i, l := range r.loads {
		n := int(l.led.attempted.Load())
		for seq := 0; seq < n; seq++ {
			due := l.led.due[seq].Load()
			rel := l.led.released[seq].Load()
			if !win.has(due) || rel == 0 {
				continue
			}
			sendAt, sendDone := l.led.sendAt[seq].Load(), l.led.sendDone[seq].Load()
			spans = append(spans,
				span{kind: spanEnvelope, node: int16(i), id: uint64(seq), start: due, dur: rel - due},
				span{kind: spanBroadcast, node: int16(i), id: uint64(seq), start: sendAt, dur: sendDone - sendAt})
		}
	}
	return spans
}

// storageSpans returns every sync duration (ms) and the total self time
// of all storage spans (ms; storage spans have no children).
func storageSpans(spans []span) (syncs []float64, selfMs float64) {
	for _, s := range spans {
		switch s.kind {
		case spanSync:
			syncs = append(syncs, float64(s.dur)/1e6)
			selfMs += float64(s.dur) / 1e6
		case spanWrite, spanRead:
			selfMs += float64(s.dur) / 1e6
		}
	}
	return syncs, selfMs
}

// outage is the longest gap between block releases at the load
// frontends from the kill to the end of the window (ms).
func (r *rig) outage(killAt int64, win window) float64 {
	var times []int64
	for _, l := range r.loads {
		for _, t := range l.relTimes {
			if t > killAt && t < win.end {
				times = append(times, t)
			}
		}
	}
	slices.Sort(times)
	prev, longest := killAt, int64(0)
	for _, t := range times {
		longest = max(longest, t-prev)
		prev = t
	}
	longest = max(longest, win.end-prev)
	return float64(longest) / 1e6
}

func sleepUntil(t int64) {
	if d := time.Until(time.Unix(0, t)); d > 0 {
		time.Sleep(d)
	}
}

// percentile is the nearest-rank p-th percentile (0 without samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
