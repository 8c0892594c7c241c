// Package core defines the domain model of the Enki neighborhood:
// hours, preference windows, preferences, allocations, consumptions,
// household types, valuations, and hourly load profiles.
//
// The model follows Section III of the paper. A day is the hour set
// H = {0, ..., 23}. A household i declares a preference
// χ_i = (α_i, β_i, v_i): it wants to consume power for v_i consecutive
// hours starting no earlier than α_i and finishing no later than β_i.
// Occupancy intervals are half-open: an interval (18, 20) occupies the
// hour slots 18 and 19.
package core

// HoursPerDay is the number of scheduling slots in a day (|H| = 24).
const HoursPerDay = 24

// Hour is an hour-of-day slot in H = {0, ..., 23}. Interval endpoints
// may additionally take the value 24 (end of day, exclusive bound).
type Hour = int

// ValidBound reports whether h is a valid interval endpoint (0..24).
func ValidBound(h Hour) bool { return h >= 0 && h <= HoursPerDay }
