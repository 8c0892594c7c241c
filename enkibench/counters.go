package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"enki/internal/netproto"
	"enki/internal/obs"
	"enki/internal/sched"
)

// counters is a reading of the program's own series in obs.Default():
// the sums and counts of its timers and its counters, never bucket
// quantiles.
type counters struct {
	schedSum   float64
	deferred   uint64
	shardSum   float64
	shardCount uint64
	frames     uint64
	msgs       uint64
	bytes      uint64
	fedReports uint64
	retries    uint64
	resumes    uint64
	timeouts   uint64
	prefSum    float64
	prefCount  uint64
	consSum    float64
	consCount  uint64
}

func sentBytes() *obs.Counter {
	return obs.Default().Counter(obs.MetricNetBytesTotal, obs.LabelDirection, obs.DirectionSent)
}

func readCounters() counters {
	reg := obs.Default()
	scheduler := (&sched.Greedy{}).Name()
	alloc := reg.Histogram(obs.MetricSchedAllocateLatencyMS, obs.LatencyBucketsMS, obs.LabelScheduler, scheduler)
	shard := reg.Histogram(obs.MetricClusterShardSettleMS, obs.LatencyBucketsMS)
	pref := reg.Histogram(obs.MetricNetPhaseLatencyMS, obs.LatencyBucketsMS, obs.LabelPhase, string(netproto.KindPreference))
	cons := reg.Histogram(obs.MetricNetPhaseLatencyMS, obs.LatencyBucketsMS, obs.LabelPhase, string(netproto.KindConsumption))
	return counters{
		schedSum:   alloc.Sum(),
		deferred:   reg.Counter(obs.MetricSchedDeferredHouseholds, obs.LabelScheduler, scheduler).Value(),
		shardSum:   shard.Sum(),
		shardCount: shard.Count(),
		frames:     reg.Counter(obs.MetricNetFramesTotal, obs.LabelDirection, obs.DirectionSent).Value(),
		msgs:       reg.Counter(obs.MetricNetMessagesTotal, obs.LabelDirection, obs.DirectionSent).Value(),
		bytes:      sentBytes().Value(),
		fedReports: reg.Counter(obs.MetricObsFederationReports, obs.LabelSource, "shard").Value(),
		retries:    reg.Counter(obs.MetricNetRetriesTotal).Value(),
		resumes: reg.Counter(obs.MetricNetResumesTotal, obs.LabelSide, obs.SideAgent).Value() +
			reg.Counter(obs.MetricNetResumesTotal, obs.LabelSide, obs.SideCenter).Value(),
		timeouts: reg.Counter(obs.MetricNetTimeoutsTotal, obs.LabelPhase, string(netproto.KindPreference)).Value() +
			reg.Counter(obs.MetricNetTimeoutsTotal, obs.LabelPhase, string(netproto.KindConsumption)).Value(),
		prefSum:   pref.Sum(),
		prefCount: pref.Count(),
		consSum:   cons.Sum(),
		consCount: cons.Count(),
	}
}

// peakRSSMB returns the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// dayValues collects one value per traced day for each per-layer
// metric; the run reports each metric's median over its traced days.
type dayValues map[string][]float64

func (v dayValues) add(name string, x float64) { v[name] = append(v[name], x) }

// addGC records the Go runtime's work between two MemStats readings
// taken around one day call.
func (v dayValues) addGC(a, b *runtime.MemStats, households float64) {
	v.add("gc.cycles_per_day", float64(b.NumGC-a.NumGC))
	v.add("gc.pause_ms_per_day", float64(b.PauseTotalNs-a.PauseTotalNs)/1e6)
	v.add("gc.alloc_bytes_per_household", ratio(float64(b.TotalAlloc-a.TotalAlloc), households))
	v.add("gc.mallocs_per_household", ratio(float64(b.Mallocs-a.Mallocs), households))
}

// addWire records the program's wire counters for one day.
func (v dayValues) addWire(a, b counters) {
	frames := float64(b.frames - a.frames)
	msgs := float64(b.msgs - a.msgs)
	v.add("codec.frames_per_day", frames)
	v.add("codec.msgs_per_frame", ratio(msgs, frames))
	v.add("codec.bytes_per_msg", ratio(float64(b.bytes-a.bytes), msgs))
}

// addSched records the scheduler's busy time and deferrals for one day.
func (v dayValues) addSched(a, b counters, households float64) {
	busy := b.schedSum - a.schedSum
	v.add("sched.busy_ms", busy)
	v.add("sched.us_per_household", ratio(busy*1000, households))
	v.add("sched.deferred_households", float64(b.deferred-a.deferred))
}

// addReplay records one day's replays.
func (v dayValues) addReplay(r *dayReplay, ledger bool) {
	h := float64(r.households)
	v.add("sched.allocs_per_household", ratio(float64(r.schedMallocs), h))
	v.add("mechanism.settle_ms", float64(r.settleNS)/1e6)
	v.add("mechanism.allocs_per_household", ratio(float64(r.mechMallocs), h))
	v.add("codec.encode_ms", float64(r.encodeNS)/1e6)
	v.add("codec.decode_ms", float64(r.decodeNS)/1e6)
	v.add("codec.decode_allocs_per_msg", ratio(float64(r.decMallocs), float64(r.msgs)))
	if ledger {
		v.add("mechanism.ledger_entry_ms", float64(r.ledgerEntryNS)/1e6)
		v.add("journal.append_ms", float64(r.appendNS)/1e6)
	}
}

// meanPerDay are the metrics reported as a mean over the traced days:
// a GC cycle does not happen every day, so a median would read 0.
var meanPerDay = map[string]bool{"gc.cycles_per_day": true, "gc.pause_ms_per_day": true}

// medians stores the median of every collected metric in res (the mean
// for meanPerDay).
func (v dayValues) medians(res *result) {
	for name, xs := range v {
		if !meanPerDay[name] {
			res.set(name, median(xs))
			continue
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		res.set(name, sum/float64(len(xs)))
	}
}

// cpuTimes reads the machine-wide CPU time counters (in clock ticks) of
// /proc/stat: the total and the part stolen by the hypervisor. ok is
// false where the file is missing or malformed.
func cpuTimes() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter reports the share of the machine's CPU time the hypervisor
// stole over a region: contention from outside the process, which slows
// every timed day alike and explains run-to-run drift.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTimes()
	return stealMeter{t, s, ok}
}

// note adds the region's steal share to the result's notes.
func (m stealMeter) note(res *result) {
	t, s, ok := cpuTimes()
	if !m.ok || !ok || t <= m.total {
		return
	}
	res.note("host CPU stolen during the timed region: %.1f%%", 100*float64(s-m.steal)/float64(t-m.total))
}
