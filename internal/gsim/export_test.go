package gsim

// MSHRTableSizes reports the slot count of every GPM's MSHR table, for
// the tests outside the package.
func (s *System) MSHRTableSizes() []int {
	sizes := make([]int, len(s.GPMs))
	for i, g := range s.GPMs {
		sizes[i] = len(g.mshr.slots)
	}
	return sizes
}

// MSHRSlotsFor exposes the slot count New gives each MSHR table.
var MSHRSlotsFor = mshrSlotsFor
