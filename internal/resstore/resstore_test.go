package resstore

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hmg/internal/engine"
	"hmg/internal/gsim"
	"hmg/internal/proto"
)

func testStore(t *testing.T, version string) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "store"), version)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleResults() *gsim.Results {
	return &gsim.Results{
		Name:           "lstm",
		Protocol:       proto.HMG,
		Cycles:         123456,
		Seconds:        0.0125,
		Ops:            9999,
		L2Hits:         888,
		InterGPUBytes:  1 << 30,
		KernelCycles:   []engine.Cycle{100, 200, 300},
		EventsExecuted: 424242,
	}
}

// key returns a test key: the digest of name.
func key(name string) Key { return sha256.Sum256([]byte(name)) }

func TestRoundTrip(t *testing.T) {
	s := testStore(t, "model/v1")
	k := key("run1")
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on an empty store")
	}
	want := sampleResults()
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	// Overwrite is idempotent and keys are independent.
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if recs, err := filepath.Glob(filepath.Join(s.root, "*"+ext)); err != nil || len(recs) != 1 {
		t.Fatalf("store holds %d records (err %v), want 1", len(recs), err)
	}
	if _, ok := s.Get(key("run2")); ok {
		t.Fatal("hit on a never-written key")
	}
}

// TestPathFlat: a record lives in the store's one directory under its
// key's hex. (Records lived two directory levels deep, under
// root/ab/cd/, until the layout went flat; a store of that layout
// misses and re-simulates.)
func TestPathFlat(t *testing.T) {
	s := testStore(t, "v")
	k := key("x")
	want := filepath.Join(s.root, "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881.res")
	if got := s.Path(k); got != want {
		t.Fatalf("Path = %q, want %q", got, want)
	}
	if err := s.Put(k, sampleResults()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("record not at its path: %v", err)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(want))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left after Put", e.Name())
		}
	}
}

// damage writes a mutated copy of the record and asserts Get misses
// without panicking; then restores, proving the miss was the damage.
func damage(t *testing.T, s *Store, k Key, what string, mutate func([]byte) []byte) {
	t.Helper()
	path := s.Path(k)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatalf("%s: damaged record served as a hit", what)
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatalf("%s: restored record misses — test harness bug", what)
	}
}

func TestCorruptionIsAMiss(t *testing.T) {
	s := testStore(t, "model/v1")
	k := key("victim")
	if err := s.Put(k, sampleResults()); err != nil {
		t.Fatal(err)
	}
	damage(t, s, k, "truncated to empty", func(b []byte) []byte { return nil })
	damage(t, s, k, "truncated mid-header", func(b []byte) []byte { return b[:7] })
	damage(t, s, k, "truncated by one byte", func(b []byte) []byte { return b[:len(b)-1] })
	damage(t, s, k, "flipped payload byte", func(b []byte) []byte {
		b[len(b)-1] ^= 0xFF
		return b
	})
	damage(t, s, k, "flipped digest byte", func(b []byte) []byte {
		b[len(b)-len(sampleResultsPayload(t))-1] ^= 0xFF
		return b
	})
	damage(t, s, k, "bad magic", func(b []byte) []byte {
		b[0] = 'X'
		return b
	})
	damage(t, s, k, "appended garbage", func(b []byte) []byte { return append(b, 0xEE) })
}

func sampleResultsPayload(t *testing.T) []byte {
	t.Helper()
	p, err := sampleResults().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTruncationSweep shears the record at every length: none may
// panic or hit.
func TestTruncationSweep(t *testing.T) {
	s := testStore(t, "v1")
	k := key("sweep")
	if err := s.Put(k, sampleResults()); err != nil {
		t.Fatal(err)
	}
	path := s.Path(k)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(orig); cut++ {
		if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(k); ok {
			t.Fatalf("record truncated to %d/%d bytes served as a hit", cut, len(orig))
		}
	}
}

// TestStaleModelVersion: records written under one model stamp are
// misses for a store opened with another — the simulated model changed,
// so the cached figures describe a machine that no longer exists.
func TestStaleModelVersion(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	v1, err := Open(dir, "model/v1")
	if err != nil {
		t.Fatal(err)
	}
	k := key("run")
	if err := v1.Put(k, sampleResults()); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dir, "model/v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get(k); ok {
		t.Fatal("v2 store trusted a v1-stamped record")
	}
	if _, ok := v1.Get(k); !ok {
		t.Fatal("v1 store misses its own record")
	}
	// The v2 store re-populates over the stale record.
	if err := v2.Put(k, sampleResults()); err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get(k); !ok {
		t.Fatal("v2 store misses after re-populating")
	}
	if _, ok := v1.Get(k); ok {
		t.Fatal("v1 store trusted a v2-stamped record")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", "v"); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
	if _, err := Open(t.TempDir(), ""); err == nil {
		t.Fatal("Open accepted an empty model-version stamp")
	}
	if _, err := Open(t.TempDir(), strings.Repeat("v", 1<<16)); err == nil {
		t.Fatal("Open accepted a model-version stamp its records cannot hold")
	}
}

// TestUndecodablePayloadIsAMiss plants a record whose framing verifies
// (digest matches) but whose payload is not a Results encoding.
func TestUndecodablePayloadIsAMiss(t *testing.T) {
	s := testStore(t, "v1")
	k := key("junk")
	if err := s.putBytes(k, []byte{0xFF, 0x00, 0x13}); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.getBytes(k); !ok || len(got) != 3 {
		t.Fatal("byte layer should verify the junk payload")
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("undecodable payload served as a results hit")
	}
}

// FuzzParseRecord feeds arbitrary record images to the parser: none may
// panic, and an accepted one must be exactly the image its payload
// makes under the store's stamp.
func FuzzParseRecord(f *testing.F) {
	const version = "model/v1"
	payload, err := sampleResults().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	valid := record(version, payload)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-len(payload)-1] ^= 0xFF
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(record("model/v2", payload))
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, ok := parseRecord(buf, version)
		if ok && !bytes.Equal(record(version, got), buf) {
			t.Fatalf("accepted a %d-byte image that its payload does not rebuild", len(buf))
		}
	})
}
