package main

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// ackAll records n envelopes as attempted and answered SUCCESS.
func ackAll(l *ledger, n int) {
	for seq := range uint64(n) {
		if err := l.attempt(seq, int64(seq)+1); err != nil {
			panic(err)
		}
		l.answer(seq, int64(seq)+1, int64(seq)+2, true)
	}
}

func TestLedgerAcceptsExactlyOnce(t *testing.T) {
	l := newLedger(8)
	ackAll(l, 3)
	for seq := range uint64(3) {
		l.release(seq, 10)
	}
	rep := l.verify()
	if err := rep.err(); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	if rep.attempted != 3 || rep.failed() != 0 {
		t.Fatalf("report = %+v, want 3 attempted, 0 failed", rep)
	}
}

func TestLedgerRejectsDroppedAndDuplicated(t *testing.T) {
	l := newLedger(8)
	ackAll(l, 4)
	l.release(0, 10)
	l.release(1, 11)
	l.release(1, 12) // duplicated
	l.release(3, 13) // seq 2 is dropped
	rep := l.verify()
	if rep.lost != 1 || rep.dup != 1 {
		t.Fatalf("report = %+v, want 1 lost and 1 duplicated", rep)
	}
	if rep.err() == nil {
		t.Fatal("a dropped and a duplicated envelope passed the check")
	}
	if rep.failed() != 1 {
		t.Fatalf("failed = %d, want the dropped envelope only", rep.failed())
	}
}

func TestLedgerCountsRefusedAsFailed(t *testing.T) {
	l := newLedger(4)
	if err := l.attempt(0, 1); err != nil {
		t.Fatal(err)
	}
	l.answer(0, 1, 2, false)
	rep := l.verify()
	if rep.refused != 1 || rep.failed() != 1 || rep.err() != nil {
		t.Fatalf("report = %+v, want one refused envelope and no violation", rep)
	}
	if err := l.attempt(4, 1); err != errLedgerFull {
		t.Fatalf("attempt past capacity = %v, want errLedgerFull", err)
	}
}

// chain builds n linked blocks of one envelope each.
func chain(n int) []*fabric.Block {
	gen := bench.NewEnvelopeGen(channel, "c", 32, 1)
	var prev cryptoutil.Digest
	blocks := make([]*fabric.Block, n)
	for i := range blocks {
		raw, _ := gen.Next()
		blocks[i] = fabric.NewBlock(uint64(i), prev, [][]byte{raw})
		prev = blocks[i].Header.Hash()
	}
	return blocks
}

func TestChainCheck(t *testing.T) {
	good := newChainCheck()
	for _, b := range chain(2*chainRun + 3) {
		good.add(b)
	}
	good.flush()
	if good.err != nil {
		t.Fatalf("valid chain rejected: %v", good.err)
	}

	blocks := chain(chainRun + 5)
	blocks[chainRun+2].Envelopes[0] = []byte("tampered")
	bad := newChainCheck()
	for _, b := range blocks {
		bad.add(b)
	}
	bad.flush()
	if bad.err == nil {
		t.Fatal("tampered block passed the chain check")
	}
}

func TestHashComparisons(t *testing.T) {
	blocks := chain(4)
	live := make(map[uint64]cryptoutil.Digest)
	for _, b := range blocks {
		live[b.Header.Number] = b.Header.Hash()
	}
	if err := sameHashes(live, live); err != nil {
		t.Fatalf("identical frontends disagree: %v", err)
	}
	forked := map[uint64]cryptoutil.Digest{2: blocks[3].Header.Hash()}
	if sameHashes(live, forked) == nil {
		t.Fatal("frontends with different header hashes agreed")
	}
	if err := checkReplays(live, []replayed{{number: 1, hash: live[1]}}); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}
	if checkReplays(live, []replayed{{number: 1, hash: live[2]}}) == nil {
		t.Fatal("replay differing from the live copy passed")
	}
	if checkReplays(live, []replayed{{number: 9, hash: live[2]}}) == nil {
		t.Fatal("replay of a block never released live passed")
	}
}
