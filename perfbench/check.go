package main

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// Envelope states recorded by the ledger.
const (
	stateAcked   int32 = 1 // BroadcastRaw answered SUCCESS
	stateRefused int32 = 2 // BroadcastRaw answered anything else
)

// ledger records the life of every envelope one load frontend submits,
// indexed by the envelope's generator sequence number: when it was due,
// when BroadcastRaw started and returned, how it was answered, and when
// (and how often) it came back in a released block. The generator writes
// an entry before the release path can read it; every field is atomic
// because the two run on different goroutines.
type ledger struct {
	due       []atomic.Int64 // unix ns the envelope was due (open loop) or sent (closed loop)
	sendAt    []atomic.Int64 // unix ns BroadcastRaw was called
	sendDone  []atomic.Int64 // unix ns BroadcastRaw returned
	released  []atomic.Int64 // unix ns of the first release
	copies    []atomic.Int32 // releases seen
	state     []atomic.Int32
	attempted atomic.Int64 // entries in use
	acked     atomic.Int64
	delivered atomic.Int64 // distinct envelopes released
}

func newLedger(capacity int) *ledger {
	return &ledger{
		due:      make([]atomic.Int64, capacity),
		sendAt:   make([]atomic.Int64, capacity),
		sendDone: make([]atomic.Int64, capacity),
		released: make([]atomic.Int64, capacity),
		copies:   make([]atomic.Int32, capacity),
		state:    make([]atomic.Int32, capacity),
	}
}

// errLedgerFull reports a generator that outran the ledger's capacity.
var errLedgerFull = errors.New("ledger full: the generator outran its capacity")

// attempt records envelope seq as due at the given time. Sequence numbers
// must arrive in order from one goroutine.
func (l *ledger) attempt(seq uint64, due int64) error {
	if seq >= uint64(len(l.due)) {
		return errLedgerFull
	}
	l.due[seq].Store(due)
	l.attempted.Store(int64(seq) + 1)
	return nil
}

// answer records the BroadcastRaw call of envelope seq and its status.
func (l *ledger) answer(seq uint64, sendAt, sendDone int64, ok bool) {
	l.sendAt[seq].Store(sendAt)
	l.sendDone[seq].Store(sendDone)
	if ok {
		l.state[seq].Store(stateAcked)
		l.acked.Add(1)
	} else {
		l.state[seq].Store(stateRefused)
	}
}

// release records envelope seq in a released block at time at. It
// reports whether this was the envelope's first release.
func (l *ledger) release(seq uint64, at int64) bool {
	if seq >= uint64(len(l.copies)) {
		return false // not ours to judge; verify flags it as a phantom
	}
	if l.copies[seq].Add(1) != 1 {
		return false
	}
	l.released[seq].Store(at)
	l.delivered.Add(1)
	return true
}

// outstanding counts envelopes answered SUCCESS and not yet released.
func (l *ledger) outstanding() int64 { return l.acked.Load() - l.delivered.Load() }

// deliveryReport tallies a ledger against the exactly-once rule.
type deliveryReport struct {
	attempted int
	refused   int // not answered SUCCESS
	lost      int // answered SUCCESS, never released
	dup       int // released more than once
	phantom   int // released but never attempted
}

// failed counts the envelopes the run failed to deliver.
func (r deliveryReport) failed() int { return r.refused + r.lost }

// err is non-nil when any SUCCESS-acked envelope was not released exactly
// once, or a release matched no attempt.
func (r deliveryReport) err() error {
	if r.lost == 0 && r.dup == 0 && r.phantom == 0 {
		return nil
	}
	return fmt.Errorf("exactly-once violated: %d lost, %d duplicated, %d phantom of %d attempted",
		r.lost, r.dup, r.phantom, r.attempted)
}

// verify checks every envelope the ledger saw; call it after the drain,
// once no release can still arrive.
func (l *ledger) verify() deliveryReport {
	n := int(l.attempted.Load())
	r := deliveryReport{attempted: n}
	for i := range l.copies {
		copies := l.copies[i].Load()
		if i >= n {
			if copies > 0 {
				r.phantom++
			}
			continue
		}
		switch {
		case l.state[i].Load() != stateAcked:
			r.refused++
		case copies == 0:
			r.lost++
		}
		if copies > 1 {
			r.dup++
		}
	}
	return r
}

// chainCheck verifies one frontend's released blocks with
// fabric.VerifyChain and keeps each block's header hash for the
// cross-frontend and replay comparisons. Blocks are verified in runs of
// chainRun, each run anchored on the last block of the previous one, so
// a block's data is hashed about once. Owned by one goroutine.
type chainCheck struct {
	run    []*fabric.Block
	hashes map[uint64]cryptoutil.Digest
	err    error
}

const chainRun = 64

func newChainCheck() *chainCheck {
	return &chainCheck{hashes: make(map[uint64]cryptoutil.Digest)}
}

func (c *chainCheck) add(b *fabric.Block) {
	c.hashes[b.Header.Number] = b.Header.Hash()
	c.run = append(c.run, b)
	if len(c.run) >= chainRun {
		c.flush()
	}
}

// flush verifies the pending run and keeps its last block as the anchor
// of the next one.
func (c *chainCheck) flush() {
	if len(c.run) == 0 {
		return
	}
	if err := fabric.VerifyChain(c.run); err != nil && c.err == nil {
		c.err = err
	}
	last := c.run[len(c.run)-1]
	clear(c.run)
	c.run = append(c.run[:0], last)
}

// sameHashes checks that two frontends agree on the header hash of every
// block both released, and that they share at least one.
func sameHashes(a, b map[uint64]cryptoutil.Digest) error {
	common := 0
	for num, h := range a {
		other, ok := b[num]
		if !ok {
			continue
		}
		common++
		if other != h {
			return fmt.Errorf("block %d: frontends released different header hashes", num)
		}
	}
	if common == 0 {
		return errors.New("frontends released no block in common")
	}
	return nil
}

// replayed is one block the catch-up reader received.
type replayed struct {
	number uint64
	hash   cryptoutil.Digest
}

// checkReplays requires every replayed block to be hash-identical to the
// live copy a load frontend released.
func checkReplays(live map[uint64]cryptoutil.Digest, got []replayed) error {
	for _, r := range got {
		h, ok := live[r.number]
		if !ok {
			return fmt.Errorf("replayed block %d was never released live", r.number)
		}
		if h != r.hash {
			return fmt.Errorf("replayed block %d differs from the live copy", r.number)
		}
	}
	return nil
}
