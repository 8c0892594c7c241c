package netproto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"enki/internal/mechanism"
	"enki/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden files of the tests run from this build")

const goldenPath = "testdata/cluster_golden.json"

// goldenRun settles three days of a fixed-seed 2,000-household,
// 16-shard cluster whose shard 5 runs under a drop/dup/garble fault
// plan, and returns everything the run emits, by name: the
// ClusterDayRecord JSON (one line per day), the audit ledger bytes, the
// sent and received wire-counter deltas, and the messages-per-frame
// histogram delta. Every ledger entry must audit clean, absentees
// included.
func goldenRun(t *testing.T, codec string) map[string]string {
	t.Helper()
	plan := GenerateFaultPlan(17, 2000, 0.02, 0, 0.02, 0.004)
	var ledger bytes.Buffer
	cluster := buildCluster(t, 2000,
		WithShards(16),
		WithCodec(codec),
		WithTraceSeed(13),
		WithLedger(NewJournal(&ledger)),
		WithShardFaultPlan(5, plan),
	)
	before := obs.Default().Snapshot()
	records := marshalDays(t, cluster, 3)
	after := obs.Default().Snapshot()
	for _, action := range []FaultAction{FaultDrop, FaultDup, FaultGarble} {
		key := fmt.Sprintf("%s{%s=%q}", obs.MetricNetFaultsTotal, obs.LabelAction, action)
		if after.Counters[key] == before.Counters[key] {
			t.Fatalf("%s: the fault plan never injected %s", codec, action)
		}
	}
	entries, err := mechanism.ReadLedger(bytes.NewReader(ledger.Bytes()))
	if err != nil {
		t.Fatalf("%s: read ledger: %v", codec, err)
	}
	absent := 0
	for _, e := range entries {
		if bad := e.Audit(); len(bad) != 0 {
			t.Fatalf("%s: day %d trace %s audit: %v", codec, e.Day, e.TraceID, bad)
		}
		absent += len(e.Absent)
	}
	if absent == 0 {
		t.Fatalf("%s: the ledger lists no absentee", codec)
	}
	return map[string]string{
		"records":       string(records),
		"ledger":        ledger.String(),
		"sent":          wireCounterDeltas(before, after, obs.DirectionSent),
		"received":      wireCounterDeltas(before, after, obs.DirectionReceived),
		"frameMessages": histogramDelta(before, after, obs.MetricNetFrameMessages),
	}
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// wireCounterDeltas renders, one "key delta" line per moved series in
// key order, how far every wire counter of one direction moved. Series
// that did not move are left out, so the text does not depend on what
// earlier tests registered.
func wireCounterDeltas(before, after obs.Snapshot, direction string) string {
	names := []string{obs.MetricNetMessagesTotal, obs.MetricNetBytesTotal,
		obs.MetricNetFramesTotal, obs.MetricNetCodecBytesTotal}
	label := fmt.Sprintf("%s=%q", obs.LabelDirection, direction)
	var keys []string
	for key := range after.Counters {
		for _, name := range names {
			if strings.HasPrefix(key, name+"{") && strings.Contains(key, label) {
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, key := range keys {
		if d := after.Counters[key] - before.Counters[key]; d != 0 {
			fmt.Fprintf(&b, "%s %d\n", key, d)
		}
	}
	return b.String()
}

// histogramDelta renders how far one histogram's buckets, count and
// sum moved.
func histogramDelta(before, after obs.Snapshot, name string) string {
	a, b := after.Histograms[name], before.Histograms[name]
	var s strings.Builder
	for i, n := range a.Buckets {
		var prev uint64
		if i < len(b.Buckets) {
			prev = b.Buckets[i]
		}
		fmt.Fprintf(&s, "bucket %d %d\n", i, n-prev)
	}
	fmt.Fprintf(&s, "count %d\nsum %g\n", a.Count-b.Count, a.Sum-b.Sum)
	return s.String()
}

// TestClusterGoldenDigests pins a cluster's settled output and wire
// telemetry across builds, where TestClusterWorkersBitIdentical only
// compares a build with itself: the committed digests were generated
// by an earlier build, so any change to a record byte, a ledger byte,
// a fault's effect, or a wire count fails here. Regenerate with
// -update-golden only for a deliberate output change.
func TestClusterGoldenDigests(t *testing.T) {
	texts := map[string]map[string]string{} // codec → name → emitted text
	got := map[string]map[string]string{}   // codec → name → digest
	for _, codec := range []string{CodecJSON, CodecBinary} {
		texts[codec] = goldenRun(t, codec)
		got[codec] = map[string]string{}
		for name, text := range texts[codec] {
			got[codec][name] = digest(text)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden digests: %v", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden digests: %v", err)
	}
	for codec, digests := range got {
		for name, d := range digests {
			if d == want[codec][name] {
				continue
			}
			t.Errorf("%s %s digest %s, want %s", codec, name, d, want[codec][name])
			if name != "records" && name != "ledger" {
				t.Logf("%s %s:\n%s", codec, name, texts[codec][name])
			}
		}
	}
}
