package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the unit of /proc/stat's CPU counters on Linux.
const userHZ = 100

// hostSample is a reading of the host counters that explain a run
// which disagrees with its neighbours: hypervisor steal and the
// process's own CPU time.
type hostSample struct {
	at       time.Time
	stealOK  bool
	steal    uint64 // /proc/stat steal, in 1/userHZ s
	cpuNanos int64  // process user+system CPU time
}

func sampleHost() hostSample {
	s := hostSample{at: time.Now(), cpuNanos: processCPU()}
	s.steal, s.stealOK = readSteal()
	return s
}

// readSteal returns the host-wide steal counter from /proc/stat.
func readSteal() (uint64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		v, err := strconv.ParseUint(fields[8], 10, 64)
		return v, err == nil
	}
	return 0, false
}

// processCPU returns the process's user plus system CPU time.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// hostDelta is what the host did between two samples.
type hostDelta struct {
	wall    time.Duration
	stealMs float64 // -1 when /proc/stat is unreadable
	cpuS    float64
}

func (s hostSample) since() hostDelta {
	now := sampleHost()
	d := hostDelta{wall: now.at.Sub(s.at), stealMs: -1, cpuS: float64(now.cpuNanos-s.cpuNanos) / 1e9}
	if s.stealOK && now.stealOK {
		d.stealMs = float64(now.steal-s.steal) * 1000 / userHZ
	}
	return d
}

// A set-up or a timed phase is measured again when the host stole more
// than stealLimit of the machine's CPU time during it, and at least
// minStealTicks ticks of /proc/stat. Steal comes in bursts: sampled
// each second for 8 minutes on a 2-vCPU VM, it read at most 1% in three
// seconds of four and 3-20% in one of nine, and ten runs that kept the
// phases such bursts hit spread by more than a quarter. Steal is
// host-wide: the program cannot raise it by using more CPU, only by
// running longer, which the share accounts for.
const (
	stealLimit    = 0.03
	minStealTicks = 2
	// maxTries bounds the tries of one set-up or phase; a run's repeat
	// budget (see run.calm) bounds them all together.
	maxTries = 4
)

// disturbed reports whether the host stole enough CPU during d to
// distort a measurement taken over it.
func (d hostDelta) disturbed() bool {
	if d.stealMs < 0 {
		return false
	}
	capacityMs := float64(d.wall.Milliseconds()) * float64(runtime.NumCPU())
	return d.stealMs >= minStealTicks*1000/userHZ && d.stealMs > stealLimit*capacityMs
}

// line is the host record printed with every run.
func (d hostDelta) line() string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s run_s=%.3f cpu_s=%.3f steal_ms=%.0f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), d.wall.Seconds(), d.cpuS, d.stealMs)
}

// metrics reports the host record as per-layer metrics of a traced run.
func (d hostDelta) metrics() []metric {
	return []metric{
		{"host.steal_ms", d.stealMs, "ms"},
		{"host.cpu_s", d.cpuS, "s"},
	}
}
