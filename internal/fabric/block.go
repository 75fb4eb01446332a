package fabric

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// BlockHeader is the part of a block every ordering node signs: the block
// number, the hash of the previous header, and the hash of this block's
// envelopes (Figure 1: each block carries the cryptographic hash of the
// previous block, so forging block j requires forging all of j+1..i).
type BlockHeader struct {
	Number   uint64
	PrevHash cryptoutil.Digest
	DataHash cryptoutil.Digest
}

// headerWireSize is the fixed encoding size of a header.
const headerWireSize = 8 + 2*cryptoutil.DigestSize

// Marshal encodes the header in its fixed layout.
func (h *BlockHeader) Marshal() []byte {
	w := wire.NewWriter(headerWireSize)
	w.PutUint64(h.Number)
	w.PutRaw(h.PrevHash[:])
	w.PutRaw(h.DataHash[:])
	return w.Bytes()
}

func readHeader(r *wire.Reader) BlockHeader {
	var h BlockHeader
	h.Number = r.Uint64()
	copy(h.PrevHash[:], r.Raw(cryptoutil.DigestSize))
	copy(h.DataHash[:], r.Raw(cryptoutil.DigestSize))
	return h
}

// Hash returns the header digest: the value chained into the next block and
// the leaf of the decision root ordering nodes sign (a decision that seals
// one block signs this hash itself). Signing constant-size digests rather
// than whole blocks is why signature throughput is independent of envelope
// and block sizes (Section 6.1).
func (h *BlockHeader) Hash() cryptoutil.Digest {
	return cryptoutil.Hash(h.Marshal())
}

// BlockSignature is one ordering node's signature over a decision root: the
// Merkle root of the header hashes of every block one consensus decision
// sealed. Path proves this block's header hash is a leaf under that root,
// so each block stays independently verifiable. A decision that sealed one
// block signs the header hash directly and carries an empty Path.
type BlockSignature struct {
	SignerID  string
	Signature []byte
	Path      []PathStep
}

// PathStep is one level of an inclusion path: the sibling digest and the
// side it sits on.
type PathStep struct {
	Sibling cryptoutil.Digest
	Left    bool // the sibling is the left child
}

// maxPathLen bounds a decoded inclusion path: 32 levels cover a decision
// of 2^32 blocks, far beyond any consensus batch.
const maxPathLen = 32

// pathStepWireSize is the encoding size of one path step: side, sibling.
const pathStepWireSize = 1 + cryptoutil.DigestSize

// innerNodePrefix starts the preimage of every inner Merkle node. Header
// hashes are digests of a 72-byte header encoding, inner nodes of a
// prefixed 65-byte pair, so an inner node can never pass for a leaf.
const innerNodePrefix = 0x01

func hashInner(left, right cryptoutil.Digest) cryptoutil.Digest {
	var buf [1 + 2*cryptoutil.DigestSize]byte
	buf[0] = innerNodePrefix
	copy(buf[1:], left[:])
	copy(buf[1+cryptoutil.DigestSize:], right[:])
	return cryptoutil.Hash(buf[:])
}

// BatchRoot returns the Merkle root over leaves (in order) and each
// leaf's inclusion path. Pairs hash left to right; an odd node out is
// promoted to the next level unchanged, so its path skips that level.
// One leaf is its own root with an empty path.
func BatchRoot(leaves []cryptoutil.Digest) (cryptoutil.Digest, [][]PathStep) {
	if len(leaves) == 0 {
		return cryptoutil.Digest{}, nil
	}
	depth := bits.Len(uint(len(leaves) - 1))
	steps := make([]PathStep, len(leaves)*depth)
	paths := make([][]PathStep, len(leaves))
	pos := make([]int, len(leaves))
	for i := range leaves {
		paths[i] = steps[i*depth : i*depth : (i+1)*depth]
		pos[i] = i
	}
	level := append([]cryptoutil.Digest(nil), leaves...)
	for len(level) > 1 {
		for i, p := range pos {
			switch {
			case p%2 == 1:
				paths[i] = append(paths[i], PathStep{Sibling: level[p-1], Left: true})
			case p+1 < len(level):
				paths[i] = append(paths[i], PathStep{Sibling: level[p+1]})
			}
			pos[i] = p / 2
		}
		next := level[:0]
		for j := 0; j < len(level); j += 2 {
			if j+1 < len(level) {
				next = append(next, hashInner(level[j], level[j+1]))
			} else {
				next = append(next, level[j])
			}
		}
		level = next
	}
	return level[0], paths
}

// rootFromPath folds an inclusion path into a leaf and returns the root it
// proves the leaf sits under.
func rootFromPath(leaf cryptoutil.Digest, path []PathStep) cryptoutil.Digest {
	for _, step := range path {
		if step.Left {
			leaf = hashInner(step.Sibling, leaf)
		} else {
			leaf = hashInner(leaf, step.Sibling)
		}
	}
	return leaf
}

// SignedDigest returns the digest s signs for a block whose header hashes
// to headerHash: the decision root its path leads to.
func (s BlockSignature) SignedDigest(headerHash cryptoutil.Digest) cryptoutil.Digest {
	return rootFromPath(headerHash, s.Path)
}

// VerifySignature reports whether s is a valid signature by s.SignerID
// over the decision root that s.Path proves the block with header hash
// headerHash belongs to. It is the one signature check every consumer of
// ordering-node signatures goes through.
func VerifySignature(registry *cryptoutil.Registry, headerHash cryptoutil.Digest, s BlockSignature) bool {
	digest := s.SignedDigest(headerHash)
	return registry.Verify(s.SignerID, digest[:], s.Signature)
}

// Block is the unit appended to a channel's chain: a header, the ordered
// envelopes, and the ordering nodes' signatures.
type Block struct {
	Header     BlockHeader
	Envelopes  [][]byte // marshalled envelopes, in total order
	Signatures []BlockSignature
}

// ComputeDataHash hashes the ordered envelopes of a block.
func ComputeDataHash(envelopes [][]byte) cryptoutil.Digest {
	return cryptoutil.HashConcat(envelopes...)
}

// NewBlock assembles an unsigned block extending prevHeader with the given
// envelopes.
func NewBlock(number uint64, prevHash cryptoutil.Digest, envelopes [][]byte) *Block {
	return &Block{
		Header: BlockHeader{
			Number:   number,
			PrevHash: prevHash,
			DataHash: ComputeDataHash(envelopes),
		},
		Envelopes: envelopes,
	}
}

// MarshaledSize returns an upper bound on the block's encoded size
// (callers size encode buffers with it; the hot persist path uses pooled
// buffers and must not guess low).
func (b *Block) MarshaledSize() int {
	size := headerWireSize + 16
	for _, e := range b.Envelopes {
		size += len(e) + 4
	}
	paths := b.hasPaths()
	for _, s := range b.Signatures {
		size += len(s.SignerID) + len(s.Signature) + 8
		if paths {
			size += 1 + len(s.Path)*pathStepWireSize
		}
	}
	return size
}

// hasPaths reports whether any signature carries an inclusion path, i.e.
// whether the encoding needs its trailing path section.
func (b *Block) hasPaths() bool {
	for _, s := range b.Signatures {
		if len(s.Path) > 0 {
			return true
		}
	}
	return false
}

// MarshalInto appends the block's encoding to an existing writer. The
// storage layer uses it to frame block records in pooled buffers without
// an intermediate allocation per put.
//
// Inclusion paths follow the signature list as an optional trailing
// section (one path per signature, in order), written only when some
// signature has one, so a block whose signatures are all pathless keeps
// the legacy encoding that durable chains and older readers hold. Every
// block encoding is length-framed by its container, so the decoder
// detects the section by leftover bytes.
func (b *Block) MarshalInto(w *wire.Writer) {
	w.PutUint64(b.Header.Number)
	w.PutRaw(b.Header.PrevHash[:])
	w.PutRaw(b.Header.DataHash[:])
	w.PutBytesSlice(b.Envelopes)
	w.PutUvarint(uint64(len(b.Signatures)))
	for _, s := range b.Signatures {
		w.PutString(s.SignerID)
		w.PutBytes(s.Signature)
	}
	if !b.hasPaths() {
		return
	}
	for _, s := range b.Signatures {
		w.PutUvarint(uint64(len(s.Path)))
		for _, step := range s.Path {
			var side byte
			if step.Left {
				side = 1
			}
			w.PutByte(side)
			w.PutRaw(step.Sibling[:])
		}
	}
}

// Marshal encodes the block.
func (b *Block) Marshal() []byte {
	w := wire.NewWriter(b.MarshaledSize())
	b.MarshalInto(w)
	return w.Bytes()
}

// UnmarshalBlock decodes a block.
func UnmarshalBlock(raw []byte) (*Block, error) {
	r := wire.NewReader(raw)
	b := &Block{
		Header:    readHeader(r),
		Envelopes: r.BytesSlice(),
	}
	n := r.Uvarint()
	if n > 1<<16 {
		return nil, errors.New("block: signature count out of range")
	}
	b.Signatures = make([]BlockSignature, 0, n)
	for i := uint64(0); i < n; i++ {
		b.Signatures = append(b.Signatures, BlockSignature{
			SignerID:  r.String(),
			Signature: r.BytesCopy(),
		})
	}
	if r.Err() == nil && r.Remaining() > 0 {
		if err := readPaths(r, b.Signatures); err != nil {
			return nil, err
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	return b, nil
}

// readPaths decodes the trailing path section into sigs.
func readPaths(r *wire.Reader, sigs []BlockSignature) error {
	for i := range sigs {
		n := r.Uvarint()
		if n > maxPathLen {
			return fmt.Errorf("block: inclusion path of %d steps exceeds %d", n, maxPathLen)
		}
		if n == 0 {
			continue
		}
		path := make([]PathStep, n)
		for j := range path {
			switch side := r.Byte(); side {
			case 0: // a truncated read lands here too; Finish reports it
			case 1:
				path[j].Left = true
			default:
				return fmt.Errorf("block: inclusion path side 0x%02x", side)
			}
			copy(path[j].Sibling[:], r.Raw(cryptoutil.DigestSize))
		}
		sigs[i].Path = path
	}
	return nil
}

// CheckIntegrity verifies that the data hash matches the envelopes.
func (b *Block) CheckIntegrity() error {
	if got := ComputeDataHash(b.Envelopes); got != b.Header.DataHash {
		return fmt.Errorf("block %d: data hash mismatch", b.Header.Number)
	}
	return nil
}

// VerifySignatures counts how many distinct signers' signatures verify
// against the registry. Frontends configured for verification accept a
// block once f+1 signatures check out (footnote 8 of the paper).
func (b *Block) VerifySignatures(registry *cryptoutil.Registry) int {
	digest := b.Header.Hash()
	valid := 0
	seen := make(map[string]bool, len(b.Signatures))
	for _, s := range b.Signatures {
		if seen[s.SignerID] {
			continue
		}
		seen[s.SignerID] = true
		if VerifySignature(registry, digest, s) {
			valid++
		}
	}
	return valid
}

// VerifyRange authenticates a fetched block range [from, to) against a
// trusted anchor: anchorPrev is the PrevHash of trusted block `to` (i.e.
// the header hash of block to-1). Because every header embeds the previous
// header's hash, linking the top of the range into the anchor
// transitively authenticates every block below it, so a single untrusted
// peer cannot feed a forged or diverging history. For from == 0 the
// genesis block must additionally carry a zero previous hash.
func VerifyRange(blocks []*Block, from, to uint64, anchorPrev cryptoutil.Digest) error {
	if to <= from {
		return fmt.Errorf("verify range: empty range %d..%d", from, to)
	}
	if uint64(len(blocks)) != to-from {
		return fmt.Errorf("verify range: %d blocks for range %d..%d", len(blocks), from, to-1)
	}
	if blocks[0].Header.Number != from {
		return fmt.Errorf("verify range: starts at block %d, want %d", blocks[0].Header.Number, from)
	}
	if from == 0 && !blocks[0].Header.PrevHash.IsZero() {
		return fmt.Errorf("verify range: genesis has non-zero previous hash")
	}
	if err := VerifyChain(blocks); err != nil {
		return err
	}
	if got := blocks[len(blocks)-1].Header.Hash(); got != anchorPrev {
		return fmt.Errorf("verify range: block %d does not link into the trusted anchor",
			to-1)
	}
	return nil
}

// VerifyChain checks the hash chain across consecutive blocks: block i+1
// must reference the hash of block i's header and carry a data hash
// matching its envelopes.
func VerifyChain(blocks []*Block) error {
	for i, b := range blocks {
		if err := b.CheckIntegrity(); err != nil {
			return err
		}
		if i == 0 {
			continue
		}
		prev := blocks[i-1]
		if b.Header.Number != prev.Header.Number+1 {
			return fmt.Errorf("block %d follows block %d: number gap",
				b.Header.Number, prev.Header.Number)
		}
		if b.Header.PrevHash != prev.Header.Hash() {
			return fmt.Errorf("block %d: previous-hash mismatch", b.Header.Number)
		}
	}
	return nil
}
