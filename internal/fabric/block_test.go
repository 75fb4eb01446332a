package fabric

import (
	"bytes"
	"encoding/hex"
	"math/bits"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

func testEnvelopes(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		env := &Envelope{ChannelID: "ch", ClientID: "c", Payload: []byte{byte(i)}}
		out[i] = env.Marshal()
	}
	return out
}

func TestBlockRoundTrip(t *testing.T) {
	in := NewBlock(7, cryptoutil.Hash([]byte("prev")), testEnvelopes(3))
	in.Signatures = []BlockSignature{{SignerID: "node0", Signature: []byte("sig")}}
	out, err := UnmarshalBlock(in.Marshal())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Header != in.Header || len(out.Envelopes) != 3 || len(out.Signatures) != 1 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if err := out.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestBlockHeaderHashIsConstantSize(t *testing.T) {
	// The signature input is the header hash, whose preimage has fixed
	// size regardless of envelope count or size — the reason Figure 6's
	// signing throughput is independent of block content (Section 6.1).
	small := NewBlock(0, cryptoutil.Digest{}, testEnvelopes(1))
	big := NewBlock(0, cryptoutil.Digest{}, [][]byte{make([]byte, 1<<20)})
	if len(small.Header.Marshal()) != len(big.Header.Marshal()) {
		t.Fatal("header encoding size depends on content")
	}
	if len(small.Header.Marshal()) != headerWireSize {
		t.Fatalf("header size = %d, want %d", len(small.Header.Marshal()), headerWireSize)
	}
}

func TestBlockIntegrityDetectsTampering(t *testing.T) {
	b := NewBlock(0, cryptoutil.Digest{}, testEnvelopes(2))
	if err := b.CheckIntegrity(); err != nil {
		t.Fatalf("fresh block fails integrity: %v", err)
	}
	b.Envelopes[0][0] ^= 0xff
	if err := b.CheckIntegrity(); err == nil {
		t.Fatal("tampered envelope not detected")
	}
}

func TestVerifyChain(t *testing.T) {
	b0 := NewBlock(0, cryptoutil.Digest{}, testEnvelopes(2))
	b1 := NewBlock(1, b0.Header.Hash(), testEnvelopes(3))
	b2 := NewBlock(2, b1.Header.Hash(), testEnvelopes(1))
	if err := VerifyChain([]*Block{b0, b1, b2}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	// Break the link.
	bad := NewBlock(2, b0.Header.Hash(), testEnvelopes(1))
	if err := VerifyChain([]*Block{b0, b1, bad}); err == nil {
		t.Fatal("broken chain accepted")
	}
	// Gap in numbering.
	b3 := NewBlock(4, b2.Header.Hash(), testEnvelopes(1))
	if err := VerifyChain([]*Block{b0, b1, b2, b3}); err == nil {
		t.Fatal("numbering gap accepted")
	}
}

func TestChainTamperingCascades(t *testing.T) {
	// Forging block j requires forging all subsequent blocks (Section 2).
	blocks := make([]*Block, 4)
	prev := cryptoutil.Digest{}
	for i := range blocks {
		blocks[i] = NewBlock(uint64(i), prev, testEnvelopes(2))
		prev = blocks[i].Header.Hash()
	}
	if err := VerifyChain(blocks); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	// Replace block 1's data and fix only block 1's own data hash: the
	// chain must still fail at block 2's prev-hash link.
	blocks[1].Envelopes = testEnvelopes(3)
	blocks[1].Header.DataHash = ComputeDataHash(blocks[1].Envelopes)
	if err := VerifyChain(blocks); err == nil {
		t.Fatal("mid-chain forgery accepted")
	}
}

func TestBlockSignatureVerification(t *testing.T) {
	registry := cryptoutil.NewRegistry()
	keys := make([]*cryptoutil.KeyPair, 3)
	for i := range keys {
		kp, err := cryptoutil.GenerateKeyPair()
		if err != nil {
			t.Fatalf("keygen: %v", err)
		}
		keys[i] = kp
		registry.Register(string(rune('a'+i)), kp.Public())
	}
	b := NewBlock(0, cryptoutil.Digest{}, testEnvelopes(2))
	digest := b.Header.Hash()
	for i, kp := range keys {
		sig, err := kp.SignDigest(digest)
		if err != nil {
			t.Fatalf("sign: %v", err)
		}
		b.Signatures = append(b.Signatures, BlockSignature{
			SignerID: string(rune('a' + i)), Signature: sig,
		})
	}
	// Add a bogus signature and a duplicate signer.
	b.Signatures = append(b.Signatures,
		BlockSignature{SignerID: "z", Signature: []byte("junk")},
		BlockSignature{SignerID: "a", Signature: b.Signatures[0].Signature},
	)
	if got := b.VerifySignatures(registry); got != 3 {
		t.Fatalf("VerifySignatures = %d, want 3", got)
	}
}

func TestDataHashProperty(t *testing.T) {
	f := func(envelopes [][]byte) bool {
		return ComputeDataHash(envelopes) == ComputeDataHash(envelopes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Boundary separation.
	a := ComputeDataHash([][]byte{[]byte("ab"), []byte("c")})
	b := ComputeDataHash([][]byte{[]byte("a"), []byte("bc")})
	if a == b {
		t.Fatal("data hash does not separate envelope boundaries")
	}
}

// goldenBlock is a fixed block with two pathless signatures.
func goldenBlock() *Block {
	b := NewBlock(7, cryptoutil.Hash([]byte("prev")), [][]byte{[]byte("a"), []byte("bc")})
	b.Signatures = []BlockSignature{
		{SignerID: "replica-0", Signature: []byte("sig0")},
		{SignerID: "replica-1", Signature: []byte("sig1")},
	}
	return b
}

// goldenBlockHex is goldenBlock's encoding from before inclusion paths
// existed. Pathless blocks (one-block decisions, legacy chains, the
// kafka and solo baselines) must keep encoding to exactly these bytes.
const goldenBlockHex = "000000000000000784fd9bac333ad79154348296204fa7f8c537a96e08983e5f73b3f5ac" +
	"a8e8edf73fafa1cf2f19a7c1129beb20cf0983f73a489a221fc0dd2f16d1be292d08920502016102626302" +
	"097265706c6963612d300473696730097265706c6963612d310473696731"

func TestPathlessBlockEncodesAsBefore(t *testing.T) {
	b := goldenBlock()
	if got := hex.EncodeToString(b.Marshal()); got != goldenBlockHex {
		t.Fatalf("pathless encoding changed:\n got %s\nwant %s", got, goldenBlockHex)
	}
	raw, _ := hex.DecodeString(goldenBlockHex)
	out, err := UnmarshalBlock(raw)
	if err != nil {
		t.Fatalf("decode golden bytes: %v", err)
	}
	if !reflect.DeepEqual(out, b) {
		t.Fatalf("golden decode mismatch: %+v", out)
	}
}

func testLeaves(n int) []cryptoutil.Digest {
	leaves := make([]cryptoutil.Digest, n)
	for i := range leaves {
		leaves[i] = cryptoutil.Hash([]byte{byte(n), byte(i), byte(i >> 8)})
	}
	return leaves
}

func TestBlockPathsRoundTrip(t *testing.T) {
	_, paths := BatchRoot(testLeaves(5))
	b := goldenBlock()
	b.Signatures[1].Path = paths[4] // one promoted level: 2 steps
	b.Signatures = append(b.Signatures, BlockSignature{
		SignerID: "replica-2", Signature: []byte("sig2"), Path: paths[1],
	})
	raw := b.Marshal()
	if len(raw) > b.MarshaledSize() {
		t.Fatalf("encoding %d bytes exceeds MarshaledSize %d", len(raw), b.MarshaledSize())
	}
	out, err := UnmarshalBlock(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(out, b) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out.Signatures, b.Signatures)
	}
	if !bytes.Equal(out.Marshal(), raw) {
		t.Fatal("re-encoding differs")
	}
}

func TestBatchRootOneLeafIsHeaderHash(t *testing.T) {
	h := goldenBlock().Header.Hash()
	root, paths := BatchRoot([]cryptoutil.Digest{h})
	if root != h || len(paths) != 1 || len(paths[0]) != 0 {
		t.Fatalf("one-leaf root = %s with path %v, want the header hash %s and no path", root, paths[0], h)
	}
}

func TestBatchRootEveryLeafPathVerifies(t *testing.T) {
	for n := 1; n <= 65; n++ {
		leaves := testLeaves(n)
		root, paths := BatchRoot(leaves)
		for i, leaf := range leaves {
			if got := rootFromPath(leaf, paths[i]); got != root {
				t.Fatalf("n=%d leaf %d: path folds to %s, want root %s", n, i, got, root)
			}
			if len(paths[i]) > bits.Len(uint(n-1)) {
				t.Fatalf("n=%d leaf %d: path of %d steps", n, i, len(paths[i]))
			}
		}
	}
}

func TestInclusionPathRejectsTampering(t *testing.T) {
	kp, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	registry := cryptoutil.NewRegistry()
	registry.Register("node0", kp.Public())

	// Two decisions, A and B, each sealing a run of blocks.
	decision := func(first uint64, n int) ([]*Block, cryptoutil.Digest, [][]PathStep) {
		blocks := make([]*Block, n)
		leaves := make([]cryptoutil.Digest, n)
		var prev cryptoutil.Digest
		for i := range blocks {
			blocks[i] = NewBlock(first+uint64(i), prev, testEnvelopes(i+1))
			prev = blocks[i].Header.Hash()
			leaves[i] = prev
		}
		root, paths := BatchRoot(leaves)
		return blocks, root, paths
	}
	blocksA, rootA, pathsA := decision(0, 11)
	blocksB, _, pathsB := decision(11, 6)
	sigA, err := kp.SignDigest(rootA)
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	sign := func(path []PathStep) BlockSignature {
		return BlockSignature{SignerID: "node0", Signature: sigA, Path: path}
	}
	clone := func(path []PathStep) []PathStep { return append([]PathStep(nil), path...) }

	check := func(b *Block, s BlockSignature) bool {
		plain := VerifySignature(registry, b.Header.Hash(), s)
		b.Signatures = []BlockSignature{s}
		if counted := b.VerifySignatures(registry) == 1; counted != plain {
			t.Fatalf("VerifySignatures %v disagrees with VerifySignature %v", counted, plain)
		}
		return plain
	}
	for i, b := range blocksA {
		if !check(b, sign(pathsA[i])) {
			t.Fatalf("block %d: honest path rejected", i)
		}
	}

	b := blocksA[5]
	flipped := clone(pathsA[5])
	flipped[1].Left = !flipped[1].Left
	swapped := clone(pathsA[5])
	swapped[0].Sibling, swapped[1].Sibling = swapped[1].Sibling, swapped[0].Sibling
	foreign := clone(pathsA[5])
	foreign[0].Sibling = blocksB[0].Header.Hash()
	cases := map[string]struct {
		block *Block
		path  []PathStep
	}{
		"flipped side bit":         {b, flipped},
		"swapped siblings":         {b, swapped},
		"foreign sibling":          {b, foreign},
		"truncated path":           {b, pathsA[5][:len(pathsA[5])-1]},
		"empty path":               {b, nil},
		"another leaf's path":      {b, pathsA[6]},
		"root A on decision B":     {blocksB[2], pathsB[2]},
		"root A path on B's block": {blocksB[2], pathsA[2]},
	}
	for name, c := range cases {
		if check(c.block, sign(c.path)) {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBlockDecoderBoundsPaths(t *testing.T) {
	encode := func(steps int, side byte) []byte {
		w := wire.NewWriter(256)
		b := goldenBlock()
		b.Signatures = b.Signatures[:1]
		b.Signatures[0].Path = []PathStep{{}} // forces the path section
		b.MarshalInto(w)
		raw := w.Bytes()
		raw = raw[:len(raw)-1-pathStepWireSize] // drop the one-step path
		w = wire.NewWriter(256)
		w.PutRaw(raw)
		w.PutUvarint(uint64(steps))
		for i := 0; i < steps; i++ {
			w.PutByte(side)
			w.PutRaw(make([]byte, cryptoutil.DigestSize))
		}
		return w.Bytes()
	}
	if _, err := UnmarshalBlock(encode(maxPathLen, 1)); err != nil {
		t.Fatalf("path at the bound rejected: %v", err)
	}
	if _, err := UnmarshalBlock(encode(maxPathLen+1, 1)); err == nil {
		t.Fatal("path over the decoder's bound accepted")
	}
	if _, err := UnmarshalBlock(encode(2, 7)); err == nil {
		t.Fatal("path step with an unknown side accepted")
	}
	raw := encode(2, 0)
	if _, err := UnmarshalBlock(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated path section accepted")
	}
}

func BenchmarkBatchRoot(b *testing.B) {
	leaves := testLeaves(40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BatchRoot(leaves)
	}
}

// BenchmarkVerifySignatures checks f+1 = 2 signatures over a 40-block
// decision root on one block: the per-block cost a verifying frontend
// pays.
func BenchmarkVerifySignatures(b *testing.B) {
	blk := NewBlock(3, cryptoutil.Digest{}, testEnvelopes(10))
	leaves := testLeaves(40)
	leaves[3] = blk.Header.Hash()
	root, paths := BatchRoot(leaves)
	registry := cryptoutil.NewRegistry()
	for i := 0; i < 2; i++ {
		kp, err := cryptoutil.GenerateKeyPair()
		if err != nil {
			b.Fatalf("keygen: %v", err)
		}
		signer := "node" + strconv.Itoa(i)
		registry.Register(signer, kp.Public())
		sig, err := kp.SignDigest(root)
		if err != nil {
			b.Fatalf("sign: %v", err)
		}
		blk.Signatures = append(blk.Signatures, BlockSignature{SignerID: signer, Signature: sig, Path: paths[3]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blk.VerifySignatures(registry) != 2 {
			b.Fatal("signatures do not verify")
		}
	}
}
