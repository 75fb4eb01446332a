package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/transport"
	"repro/internal/wire"
)

// standaloneNode builds an unstarted ordering node (member 0 of a
// four-node group) whose blocks are disseminated to one probe endpoint.
// The test drives Execute and Rollback itself, standing in for the
// consensus event loop.
func standaloneNode(t *testing.T, blockSize int) (*OrderingNode, *cryptoutil.Registry, transport.Conn) {
	t.Helper()
	network := transport.NewInProcNetwork(transport.InProcConfig{})
	t.Cleanup(func() { network.Close() })
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	registry := cryptoutil.NewRegistry()
	self := consensus.ReplicaID(0)
	registry.Register(string(self.Addr()), key.Public())
	conn, err := network.Join(self.Addr())
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	probe, err := network.Join("probe")
	if err != nil {
		t.Fatalf("join probe: %v", err)
	}
	n, err := NewNode(NodeConfig{
		Consensus: consensus.Config{
			SelfID:    self,
			Replicas:  []consensus.ReplicaID{0, 1, 2, 3},
			Tentative: true,
			Key:       key,
			Registry:  registry,
		},
		BlockSize:      blockSize,
		SigningWorkers: 1,
		Key:            key,
	}, conn)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(n.Stop)
	n.frontends[probe.Addr()] = struct{}{}
	return n, registry, probe
}

func envelopeOps(channel string, from, count int) [][]byte {
	ops := make([][]byte, count)
	for i := range ops {
		ops[i] = mkEnvelope(channel, from+i, 16).Marshal()
	}
	return ops
}

// ttcOp is the ordered time-to-cut marker for a channel's block number.
func ttcOp(channel string, number uint64) []byte {
	w := wire.NewWriter(8)
	w.PutUint64(number)
	env := &fabric.Envelope{ChannelID: channel, ClientID: ttcClientPrefix + "0", Payload: w.Bytes()}
	return env.Marshal()
}

// receiveBlocks collects the blocks disseminated to the probe until want
// arrived, then makes sure nothing else follows.
func receiveBlocks(t *testing.T, probe transport.Conn, want int) []*fabric.Block {
	t.Helper()
	var blocks []*fabric.Block
	deadline := time.After(10 * time.Second)
	for len(blocks) < want {
		select {
		case m := <-probe.Inbox():
			_, b, _, err := unmarshalBlockMsg(m.Payload)
			if err != nil {
				t.Fatalf("block message: %v", err)
			}
			blocks = append(blocks, b)
		case <-deadline:
			t.Fatalf("received %d of %d blocks", len(blocks), want)
		}
	}
	select {
	case m := <-probe.Inbox():
		_, b, _, _ := unmarshalBlockMsg(m.Payload)
		t.Fatalf("unexpected extra block %v", b)
	case <-time.After(100 * time.Millisecond):
	}
	return blocks
}

// TestDecisionSignedOnce: one decision sealing many blocks, across two
// channels and including a time-to-cut block, costs the node ONE pool
// signature, and every block still verifies on its own.
func TestDecisionSignedOnce(t *testing.T) {
	n, registry, probe := standaloneNode(t, 1)
	ops := envelopeOps("a", 0, 25)
	ops = append(ops, envelopeOps("b", 100, 14)...)
	n.Execute(1, ops)
	blocks := receiveBlocks(t, probe, 39)
	if got := n.signer.Signed(); got != 1 {
		t.Fatalf("after a 39-block decision: %d pool signatures, want 1", got)
	}

	// A multi-envelope block size leaves a partial block that a marker
	// cuts: it joins the decision's root like any other block.
	n.chain("c").cutter = fabric.NewBlockCutter(fabric.CutterConfig{MaxEnvelopes: 4})
	ops = append(envelopeOps("c", 200, 6), ttcOp("c", 1))
	ops = append(ops, envelopeOps("a", 300, 2)...)
	n.Execute(2, ops)
	blocks = append(blocks, receiveBlocks(t, probe, 4)...)
	if got := n.signer.Signed(); got != 2 {
		t.Fatalf("after two decisions: %d pool signatures, want 2", got)
	}
	if st := n.Stats(); st.Signatures != 2 || st.BlocksSigned != 43 {
		t.Fatalf("stats: %d signatures for %d blocks, want 2 for 43", st.Signatures, st.BlocksSigned)
	}

	roots := make(map[cryptoutil.Digest]bool)
	for _, b := range blocks {
		if len(b.Signatures) != 1 {
			t.Fatalf("block %d carries %d signatures", b.Header.Number, len(b.Signatures))
		}
		if b.VerifySignatures(registry) != 1 {
			t.Fatalf("block %d: signature does not verify", b.Header.Number)
		}
		roots[b.Signatures[0].SignedDigest(b.Header.Hash())] = true
	}
	if len(roots) != 2 {
		t.Fatalf("blocks sign %d distinct roots, want one per decision", len(roots))
	}
}

// TestOneBlockDecisionSignsHeaderHash: a decision that seals one block
// signs its header hash with an empty path — the per-block signature a
// verifier without path support checks.
func TestOneBlockDecisionSignsHeaderHash(t *testing.T) {
	n, registry, probe := standaloneNode(t, 2)
	n.Execute(1, envelopeOps("a", 0, 3))
	b := receiveBlocks(t, probe, 1)[0]
	s := b.Signatures[0]
	if len(s.Path) != 0 {
		t.Fatalf("one-block decision carries a %d-step path", len(s.Path))
	}
	digest := b.Header.Hash()
	if !registry.Verify(s.SignerID, digest[:], s.Signature) {
		t.Fatal("signature is not over the header hash")
	}
}

// TestRolledBackRootNeverSurvives: a tentative multi-block decision that
// WHEAT rolls back before its signature returns must not leave that
// signature on any block — neither on an existing channel nor on one the
// rolled-back decision created. The single signing worker is held so the
// rollback and the re-execution land while the first root is queued.
func TestRolledBackRootNeverSurvives(t *testing.T) {
	n, registry, probe := standaloneNode(t, 2)
	n.Execute(1, envelopeOps("a", 0, 2))
	a0 := receiveBlocks(t, probe, 1)[0]

	held, release := make(chan struct{}), make(chan struct{})
	if err := n.signer.Sign(cryptoutil.Digest{}, func([]byte, error) {
		close(held)
		<-release
	}); err != nil {
		t.Fatalf("hold the worker: %v", err)
	}
	<-held // the queue is empty again: both roots below fit in it

	// Decision 2 as first executed: blocks a1, a2 and n0.
	opsA := append(envelopeOps("a", 10, 4), envelopeOps("n", 20, 2)...)
	a1 := fabric.NewBlock(1, a0.Header.Hash(), opsA[0:2])
	a2 := fabric.NewBlock(2, a1.Header.Hash(), opsA[2:4])
	n0 := fabric.NewBlock(0, cryptoutil.Digest{}, opsA[4:6])
	leavesA := []cryptoutil.Digest{a1.Header.Hash(), a2.Header.Hash(), n0.Header.Hash()}
	rootA, _ := fabric.BatchRoot(leavesA)

	n.Execute(2, opsA)
	n.Rollback(1)
	// Decision 2 as re-executed: a1, n0 and n1, all different.
	n.Execute(2, append(envelopeOps("a", 30, 2), envelopeOps("n", 40, 4)...))
	close(release)

	blocks := receiveBlocks(t, probe, 3)
	if got := n.signer.Signed(); got != 4 {
		t.Fatalf("%d pool signatures, want 4 (decision 1, holder, rolled-back root, re-execution)", got)
	}
	for _, b := range blocks {
		h := b.Header.Hash()
		if slices.Contains(leavesA, h) {
			t.Fatalf("block %d survives from the rolled-back execution", b.Header.Number)
		}
		if b.VerifySignatures(registry) != 1 {
			t.Fatalf("block %d: signature does not verify", b.Header.Number)
		}
		if b.Signatures[0].SignedDigest(h) == rootA {
			t.Fatalf("block %d carries the rolled-back root's signature", b.Header.Number)
		}
	}
}

// TestDecisionRootsVerifyEndToEnd runs a live cluster whose decisions seal
// several blocks each: every node signs fewer times than it signs blocks,
// and every block — as released live and as fetched back from the
// durable ledgers under the f+1 rule — carries f+1 signatures that
// verify through their inclusion paths.
func TestDecisionRootsVerifyEndToEnd(t *testing.T) {
	c := testCluster(t, ClusterConfig{
		Nodes:        4,
		BlockSize:    4,
		BatchTimeout: 200 * time.Millisecond, // one decision gathers the burst
		DataDir:      t.TempDir(),
	})
	fe := testFrontend(t, c, "fe-verify", true)
	stream := deliverNewest(t, fe, "ch")
	const envs = 40
	for i := 0; i < envs; i++ {
		if st := fe.Broadcast(mkEnvelope("ch", i, 32)); st != fabric.StatusSuccess {
			t.Fatalf("broadcast %d: %v", i, st)
		}
	}
	live := collectBlocks(t, stream, envs, 10*time.Second)
	const quorum = 2 // f+1
	pathed := 0
	for _, b := range live {
		if got := b.VerifySignatures(c.Registry); got < quorum {
			t.Fatalf("live block %d: %d signatures verify, want >= %d", b.Header.Number, got, quorum)
		}
		if len(b.Signatures[0].Path) > 0 {
			pathed++
		}
	}
	if pathed == 0 {
		t.Fatal("no released block carries an inclusion path: decisions sealed one block each")
	}
	for i, node := range c.Nodes {
		if st := node.Stats(); st.Signatures == 0 || st.Signatures >= st.BlocksSigned {
			t.Fatalf("node %d: %d signatures for %d blocks", i, st.Signatures, st.BlocksSigned)
		}
	}

	top := live[len(live)-1].Header.Number + 1
	fetched, err := fe.FetchVerified("ch", 0, top)
	if err != nil {
		t.Fatalf("FetchVerified: %v", err)
	}
	if uint64(len(fetched)) != top {
		t.Fatalf("fetched %d blocks, want %d", len(fetched), top)
	}
	for i, b := range fetched {
		if b.Header.Hash() != live[i].Header.Hash() {
			t.Fatalf("fetched block %d differs from the live copy", i)
		}
		if got := b.VerifySignatures(c.Registry); got < quorum {
			t.Fatalf("fetched block %d: %d signatures verify, want >= %d", i, got, quorum)
		}
	}
}
