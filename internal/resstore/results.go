// The typed layer: records hold gsim.Results in their wire encoding.
// Decode failures are misses like any other damage — the payload digest
// already matched, so a failure here means the record was written by an
// incompatible codec (which the model-version stamp, derived in part
// from the Results schema, normally rules out) and must not be trusted.

package resstore

import (
	"fmt"

	"hmg/internal/gsim"
)

// Get reads and verifies a key's simulation results. The second return
// is false on any miss: absent, damaged, stale-stamped, or undecodable
// records all mean "re-simulate".
func (s *Store) Get(k Key) (*gsim.Results, bool) {
	payload, ok := s.getBytes(k)
	if !ok {
		return nil, false
	}
	res, err := gsim.UnmarshalResults(payload)
	if err != nil {
		return nil, false
	}
	return res, true
}

// Put writes a run's results under its content address.
func (s *Store) Put(k Key, r *gsim.Results) error {
	payload, err := r.MarshalBinary()
	if err != nil {
		return fmt.Errorf("resstore: %w", err)
	}
	return s.putBytes(k, payload)
}
