package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank p-th percentile of samples (0 for
// none): the smallest sample with at least p% of samples at or below.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile of n
// samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps p·n/100 that is whole in exact arithmetic (99.9
	// of 10000) from rounding up a rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond is how many of n samples lie above the p-th percentile's rank.
func beyond(n int, p float64) int { return n - rankOf(n, p) }

// tailLadder is the percentiles the run record considers, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest percentile of the ladder that leaves at
// least ten samples beyond it, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// perOp divides a run total by the ops that produced it (0 for none).
func perOp(total float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianMS is the median of ds in milliseconds (0 for none).
func medianMS(ds []time.Duration) float64 { return ms(percentile(ds, 50)) }

// medianF is the median of xs (the mean of the middle two for even n).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// procSample is process CPU time and peak RSS from getrusage.
type procSample struct {
	cpu       time.Duration
	maxRSSKiB int64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSample{}
	}
	return procSample{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKiB: ru.Maxrss, // KiB on Linux: the process's VmHWM
	}
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in ticks: all
// time, time the hypervisor gave to other tenants (steal), and time the
// guest spent running (user, nice, system, irq, softirq).
type hostCPU struct{ total, steal, busy int64 }

func sampleHost() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	return parseCPULine(sc.Text())
}

// parseCPULine reads "cpu user nice system idle iowait irq softirq
// steal ..." (guest time is already inside user and nice).
func parseCPULine(line string) hostCPU {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		if i >= 8 {
			break
		}
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		switch i {
		case 0, 1, 2, 5, 6:
			h.busy += v
		case 7:
			h.steal = v
		}
	}
	return h
}

// stealPct is the share of host CPU time stolen between two samples.
func stealPct(a, b hostCPU) float64 {
	return 100 * ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// stolenShare is the share of the CPU time the guest asked for between
// two samples that the hypervisor gave to other tenants: steal over
// steal plus busy time. A halted vCPU asks for nothing and is stolen
// nothing, so unlike stealPct the share follows the vCPUs that did the
// work. A CPU-bound span that ran for d would have taken d·(1−share)
// on a host that stole nothing.
func stolenShare(a, b hostCPU) float64 {
	st := float64(b.steal - a.steal)
	return ratio(st, st+float64(b.busy-a.busy))
}

// unstolen scales d by the CPU time the host delivered over it.
func unstolen(d time.Duration, stolen float64) time.Duration {
	return time.Duration(float64(d) * (1 - stolen))
}

// hostTick is how often a hostTrack samples /proc/stat. The counters
// move in 10 ms ticks, so a span of one op (tens of ms) is judged over
// the few samples around it.
const hostTick = 100 * time.Millisecond

// hostTrack samples /proc/stat every hostTick from its start until
// stop, so each op can be judged by the steal around it rather than by
// the window's average.
type hostTrack struct {
	at   []time.Time
	cpu  []hostCPU
	quit chan struct{}
	done chan struct{}
}

func startHostTrack() *hostTrack {
	t := &hostTrack{quit: make(chan struct{}), done: make(chan struct{})}
	t.take()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(hostTick)
		defer tick.Stop()
		for {
			select {
			case <-t.quit:
				t.take()
				return
			case <-tick.C:
				t.take()
			}
		}
	}()
	return t
}

func (t *hostTrack) take() {
	t.cpu = append(t.cpu, sampleHost())
	t.at = append(t.at, time.Now())
}

// stop ends the sampling and waits for the sampler to exit; only then
// may stolen be called.
func (t *hostTrack) stop() {
	close(t.quit)
	<-t.done
}

// stolen is the stolen share over the shortest sampled interval that
// holds [start, end].
func (t *hostTrack) stolen(start, end time.Time) float64 {
	n := len(t.at)
	if n < 2 {
		return 0
	}
	// i: the last sample at or before start; j: the first at or after end.
	i := sort.Search(n, func(k int) bool { return t.at[k].After(start) }) - 1
	j := sort.Search(n, func(k int) bool { return !t.at[k].Before(end) })
	i = min(max(i, 0), n-2)
	j = max(min(j, n-1), i+1)
	return stolenShare(t.cpu[i], t.cpu[j])
}
