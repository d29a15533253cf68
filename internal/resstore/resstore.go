// Package resstore is the on-disk content-addressed result store
// behind the experiment campaign's second memo tier: simulation results
// keyed by a SHA-256 digest of their canonicalized run specification
// and checked against a model-version stamp in each record's header, so
// re-running a 21-figure campaign after a one-figure change only
// simulates the delta — across processes and machines, not just within
// one run. Byte-identical determinism (the
// simulator produces the same Results for the same spec everywhere) is
// what makes cached records safely shareable.
//
// Records are self-verifying: a fixed magic, the store's model-version
// stamp, the payload length, and a SHA-256 payload digest precede the
// gsim.Results binary encoding. A record that is missing, truncated,
// corrupted, stamped with a stale model version, or undecodable is a
// cache miss — the caller re-simulates, and its Put replaces the record
// in place; a damaged store can cost time
// but never a wrong figure. Writes go through a temp file and rename,
// so concurrent writers (or a crash mid-write) leave either the old
// record or the new one, never a torn file.
//
// Records live flat in the store's one directory, named by their key
// (root/<64-hex>.res): a whole campaign is about a thousand files.
package resstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// Key is the content address of one simulation run.
type Key [sha256.Size]byte

// String renders the key as lowercase hex, the record's file basename.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// magic opens every record file; the trailing byte is the record format
// version.
var magic = [8]byte{'H', 'M', 'G', 'R', 'E', 'S', 0, 1}

// ext is the record file extension.
const ext = ".res"

// Store is an on-disk result store rooted at one directory. All
// methods are safe for concurrent use by any number of processes.
type Store struct {
	root    string
	version string
}

// Open returns a store rooted at dir, creating it if needed. version
// is the model-version stamp: records written by a store with a
// different stamp are treated as misses (the simulated model changed,
// so their payloads describe a machine that no longer exists).
func Open(dir, version string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resstore: empty store directory")
	}
	if version == "" {
		return nil, fmt.Errorf("resstore: empty model-version stamp")
	}
	if len(version) > 1<<16-1 {
		return nil, fmt.Errorf("resstore: model-version stamp longer than 64KiB")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resstore: %w", err)
	}
	return &Store{root: dir, version: version}, nil
}

// Path returns where a key's record lives (whether or not it exists).
func (s *Store) Path(k Key) string { return filepath.Join(s.root, k.String()+ext) }

// getBytes reads a key's verified payload. It returns (nil, false) on
// any miss — absent, truncated, corrupt, or version-mismatched records
// are all equally untrusted and never an error: the caller's recovery
// is the same (re-simulate), and a store that could fail a campaign on
// a damaged file would be worse than no store at all.
func (s *Store) getBytes(k Key) ([]byte, bool) {
	buf, err := os.ReadFile(s.Path(k))
	if err != nil {
		return nil, false
	}
	payload, ok := parseRecord(buf, s.version)
	return payload, ok
}

// record returns the record image of payload under a model-version
// stamp of at most 64KiB: the inverse of parseRecord.
func record(version string, payload []byte) []byte {
	rec := make([]byte, 0, len(magic)+2+len(version)+8+sha256.Size+len(payload))
	rec = append(rec, magic[:]...)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(version)))
	rec = append(rec, version...)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(len(payload)))
	digest := sha256.Sum256(payload)
	rec = append(rec, digest[:]...)
	return append(rec, payload...)
}

// parseRecord validates one record image and returns its payload.
func parseRecord(buf []byte, version string) ([]byte, bool) {
	if len(buf) < len(magic)+2 || !bytes.Equal(buf[:len(magic)], magic[:]) {
		return nil, false
	}
	rest := buf[len(magic):]
	vlen := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < vlen || string(rest[:vlen]) != version {
		return nil, false
	}
	rest = rest[vlen:]
	if len(rest) < 8+sha256.Size {
		return nil, false
	}
	plen := binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	var digest [sha256.Size]byte
	copy(digest[:], rest)
	payload := rest[sha256.Size:]
	if uint64(len(payload)) != plen || sha256.Sum256(payload) != digest {
		return nil, false
	}
	return payload, true
}

// putBytes writes a payload under a key, replacing any existing record.
// The write is atomic (temp file + rename): readers see the old record
// or the new one, never a partial file.
func (s *Store) putBytes(k Key, payload []byte) error {
	path := s.Path(k)
	tmp, err := os.CreateTemp(s.root, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("resstore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(record(s.version, payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("resstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("resstore: %w", err)
	}
	return nil
}
