package cryptoutil

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("hello"))
	b := Hash([]byte("hello"))
	if a != b {
		t.Fatalf("same input hashed to different digests: %v vs %v", a, b)
	}
	c := Hash([]byte("hello!"))
	if a == c {
		t.Fatal("different inputs hashed to the same digest")
	}
}

func TestHashConcatBoundaries(t *testing.T) {
	// Length prefixes must make ("ab","c") differ from ("a","bc").
	a := HashConcat([]byte("ab"), []byte("c"))
	b := HashConcat([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("HashConcat does not separate part boundaries")
	}
}

func TestHashConcatProperty(t *testing.T) {
	f := func(parts [][]byte) bool {
		return HashConcat(parts...) == HashConcat(parts...)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDigestIsZero(t *testing.T) {
	var zero Digest
	if !zero.IsZero() {
		t.Fatal("zero digest not reported as zero")
	}
	if Hash([]byte("x")).IsZero() {
		t.Fatal("nonzero digest reported as zero")
	}
}

func TestDigestBytesRoundTrip(t *testing.T) {
	d := Hash([]byte("round trip"))
	got, err := DigestFromBytes(d.Bytes())
	if err != nil {
		t.Fatalf("DigestFromBytes: %v", err)
	}
	if got != d {
		t.Fatalf("round trip mismatch: %v vs %v", got, d)
	}
	if _, err := DigestFromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("short slice accepted as digest")
	}
}

func TestDigestBytesIsCopy(t *testing.T) {
	d := Hash([]byte("aliasing"))
	b := d.Bytes()
	b[0] ^= 0xff
	if bytes.Equal(b, d[:]) {
		t.Fatal("Bytes returned an aliased slice")
	}
}

func TestSignVerify(t *testing.T) {
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	d := Hash([]byte("sign me"))
	sig, err := kp.SignDigest(d)
	if err != nil {
		t.Fatalf("SignDigest: %v", err)
	}
	if !kp.Public().VerifyDigest(d, sig) {
		t.Fatal("valid signature rejected")
	}
	other := Hash([]byte("different message"))
	if kp.Public().VerifyDigest(other, sig) {
		t.Fatal("signature accepted for wrong digest")
	}
	kp2, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	if kp2.Public().VerifyDigest(d, sig) {
		t.Fatal("signature accepted under wrong key")
	}
}

func TestPublicKeySerialization(t *testing.T) {
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	der, err := kp.Public().Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	parsed, err := ParsePublicKey(der)
	if err != nil {
		t.Fatalf("ParsePublicKey: %v", err)
	}
	d := Hash([]byte("serialize"))
	sig, err := kp.SignDigest(d)
	if err != nil {
		t.Fatalf("SignDigest: %v", err)
	}
	if !parsed.VerifyDigest(d, sig) {
		t.Fatal("parsed key does not verify signature")
	}
	if _, err := ParsePublicKey([]byte("junk")); err == nil {
		t.Fatal("junk accepted as public key")
	}
}

func TestVerifyNilKey(t *testing.T) {
	var pk PublicKey
	if pk.Verify([]byte("d"), []byte("s")) {
		t.Fatal("nil public key verified a signature")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	reg.Register("node0", kp.Public())

	if _, ok := reg.Lookup("node0"); !ok {
		t.Fatal("registered identity not found")
	}
	if _, ok := reg.Lookup("ghost"); ok {
		t.Fatal("unknown identity found")
	}

	d := Hash([]byte("registry"))
	sig, err := kp.SignDigest(d)
	if err != nil {
		t.Fatalf("SignDigest: %v", err)
	}
	if !reg.Verify("node0", d[:], sig) {
		t.Fatal("registry rejected valid signature")
	}
	if reg.Verify("ghost", d[:], sig) {
		t.Fatal("registry verified unknown identity")
	}

	reg.Register("alpha", kp.Public())
	names := reg.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "node0" {
		t.Fatalf("Names not sorted or wrong: %v", names)
	}

	reg.Remove("node0")
	if _, ok := reg.Lookup("node0"); ok {
		t.Fatal("removed identity still present")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			name := string(rune('a' + n))
			for j := 0; j < 100; j++ {
				reg.Register(name, kp.Public())
				reg.Lookup(name)
				reg.Names()
			}
		}(i)
	}
	wg.Wait()
	if got := len(reg.Names()); got != 8 {
		t.Fatalf("expected 8 identities, got %d", got)
	}
}

// BenchmarkSignDigest is one ECDSA P-256 signature: the cost a node pays
// once per consensus decision.
func BenchmarkSignDigest(b *testing.B) {
	kp, err := GenerateKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	d := Hash([]byte("root"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kp.SignDigest(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyDigest is one ECDSA P-256 verification.
func BenchmarkVerifyDigest(b *testing.B) {
	kp, err := GenerateKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	d := Hash([]byte("root"))
	sig, err := kp.SignDigest(d)
	if err != nil {
		b.Fatal(err)
	}
	pub := kp.Public()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !pub.VerifyDigest(d, sig) {
			b.Fatal("signature does not verify")
		}
	}
}
