package mechanism_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/profile"
)

// requireMarshalMatch requires e.AppendJSON to append exactly the bytes
// json.Marshal writes for e, or to fail with json.Marshal's error.
func requireMarshalMatch(t *testing.T, e *mechanism.LedgerEntry) {
	t.Helper()
	want, wantErr := json.Marshal(e)
	got, err := e.AppendJSON([]byte("prefix:"))
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
		}
	case err != nil:
		t.Fatalf("AppendJSON: %v", err)
	case string(got) != "prefix:"+string(want):
		t.Fatalf("AppendJSON wrote\n%s\njson.Marshal wrote\n%s", got[len("prefix:"):], want)
	}
}

// goldenClusterEntries settles the three days of netproto's golden
// cluster run (2,000 households in 16 shards, shard 5 under a
// drop/dup/garble fault plan, so some rows are substituted and some
// households absent) and returns every shard's ledger entry.
func goldenClusterEntries(t *testing.T) []mechanism.LedgerEntry {
	t.Helper()
	var ledger bytes.Buffer
	cluster, err := netproto.StartCluster(context.Background(),
		netproto.WithShards(16),
		netproto.WithCodec(netproto.CodecBinary),
		netproto.WithTraceSeed(13),
		netproto.WithLedger(netproto.NewJournal(&ledger)),
		netproto.WithShardFaultPlan(5, netproto.GenerateFaultPlan(17, 2000, 0.02, 0, 0.02, 0.004)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := cluster.Join(core.HouseholdID(i), &netproto.Truthful{Type: gen.Draw().TypeWide()}); err != nil {
			t.Fatal(err)
		}
	}
	for day := 1; day <= 3; day++ {
		if _, err := cluster.ClusterDay(context.Background(), day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	entries, err := mechanism.ReadLedger(&ledger)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// fill sets every exported field under v to a distinct non-zero value:
// two elements per slice, true for bools (so omitempty fields are
// written), and strings that need escaping. A field of a kind it does
// not know fails the test, as does one AppendJSON does not write.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(t, f, n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(t, v.Index(0), n)
		fill(t, v.Index(1), n)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n) * -37)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) / 7)
	case reflect.String:
		v.SetString(fmt.Sprintf("id-%d <&> \"\\ \x01\xff\u2028", *n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fill: no rule for a %s field; teach fill and AppendJSON about it", v.Type())
	}
}

// TestLedgerEntryAppendJSON is the ledger encoder's oracle: on the
// golden cluster's entries, on an entry with every field set by
// reflection, on nil, empty and populated absentees, and on float edge
// cases, AppendJSON must append the bytes json.Marshal writes; on NaN
// and ±Inf both must fail the same way.
func TestLedgerEntryAppendJSON(t *testing.T) {
	t.Run("golden cluster", func(t *testing.T) {
		entries := goldenClusterEntries(t)
		if len(entries) == 0 {
			t.Fatal("the golden cluster wrote no ledger entries")
		}
		substituted, absent := false, false
		for i := range entries {
			for _, h := range entries[i].Households {
				substituted = substituted || h.Substituted
			}
			absent = absent || len(entries[i].Absent) > 0
			requireMarshalMatch(t, &entries[i])
		}
		if !substituted || !absent {
			t.Errorf("substituted rows %v, absentees %v: the fault plan no longer exercises omitempty", substituted, absent)
		}
	})

	t.Run("every field", func(t *testing.T) {
		var e mechanism.LedgerEntry
		n := 0
		fill(t, reflect.ValueOf(&e).Elem(), &n)
		requireMarshalMatch(t, &e)
		requireMarshalMatch(t, &mechanism.LedgerEntry{}) // nil households, empty trace ID
		requireMarshalMatch(t, &mechanism.LedgerEntry{Households: []mechanism.LedgerHousehold{}})
		for _, absent := range [][]core.HouseholdID{nil, {}, {4}, {0, 7, 123456789}} {
			e := floatEntry(1)
			e.Absent = absent
			requireMarshalMatch(t, e)
		}
	})

	t.Run("float edges", func(t *testing.T) {
		for _, f := range []float64{
			0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, 9.99e-7, 1e-6, -1e-6,
			0.1, 1.0 / 3, 123456789.125, 1e20, 1e21, -1e21, 1.5e21, 1e308, -1e308,
			math.MaxFloat64, 1e-100, 2.5e-300, 4.2e200,
		} {
			requireMarshalMatch(t, floatEntry(f))
		}
	})

	t.Run("non-finite", func(t *testing.T) {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			e := floatEntry(f)
			if _, err := json.Marshal(e); err == nil {
				t.Fatalf("json.Marshal accepted %v", f)
			}
			requireMarshalMatch(t, e)
			e = floatEntry(1)
			e.Households[0].Payment = f
			requireMarshalMatch(t, e)
		}
	})
}

// floatEntry is a one-household entry with f in every float field.
func floatEntry(f float64) *mechanism.LedgerEntry {
	return &mechanism.LedgerEntry{Schema: 1, TraceID: "t", Day: 1, K: f, Xi: f, Rating: f,
		Cost: f, Revenue: f, BudgetResidual: f, Peak: f,
		Households: []mechanism.LedgerHousehold{{ID: 3, PredictedFlexibility: f,
			Flexibility: f, Defection: f, SocialCost: f, Payment: f}}}
}

// FuzzLedgerEntryAppendJSON widens the oracle to fuzzed trace IDs,
// integers, floats and absentees (one per byte of absent, offset from
// the household's ID; nil and empty both mean none).
func FuzzLedgerEntryAppendJSON(f *testing.F) {
	f.Add("f0117ac2bf13f98a", 1, 7, 18, 22, 2, true, 1.2, 0.4, -3.25e-7, 1e21, []byte(nil))
	f.Add("< \xff\"\u2029\t", -1, 0, 0, 0, 0, false, 0.0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, []byte{})
	f.Add("9a3c", 2, 5, 17, 23, 3, false, 0.5, 0.25, 1e-3, 12.5, []byte{1, 2, 200})
	f.Fuzz(func(t *testing.T, traceID string, day, id, begin, end, slots int, sub bool,
		a, b, c, d float64, absent []byte) {
		e := &mechanism.LedgerEntry{Schema: mechanism.LedgerSchemaVersion, TraceID: traceID, Day: day,
			K: a, Xi: b, Rating: c, Cost: d, Revenue: a * b, BudgetResidual: c - d, Peak: d / 3,
			Households: []mechanism.LedgerHousehold{{
				ID:       core.HouseholdID(id),
				Reported: core.Preference{Window: core.Interval{Begin: begin, End: end}, Duration: slots},
				Assigned: core.Interval{Begin: end, End: begin}, Consumed: core.Interval{Begin: -begin, End: -end},
				DefermentSlots: slots, Substituted: sub, Defected: !sub,
				PredictedFlexibility: a, Flexibility: b, Defection: c, SocialCost: d, Payment: a - d,
			}}}
		if absent != nil {
			e.Absent = make([]core.HouseholdID, len(absent))
			for i, off := range absent {
				e.Absent[i] = core.HouseholdID(id + int(off))
			}
		}
		requireMarshalMatch(t, e)
	})
}
