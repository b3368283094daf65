package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dcstream/internal/metrics"
	"dcstream/internal/shard"
	"dcstream/internal/transport"
)

// event is the part of a dcsd -events line the gates compare.
type event struct {
	Epoch    int  `json:"epoch"`
	Routers  int  `json:"routers"`
	Degraded bool `json:"degraded"`
	Shed     bool `json:"shed"`
	Aligned  *struct {
		Found   bool  `json:"found"`
		Routers []int `json:"routers"`
	} `json:"aligned"`
	Unaligned *struct {
		Detected bool  `json:"detected"`
		Routers  []int `json:"routers"`
	} `json:"unaligned"`
}

type eventRec struct {
	at time.Time
	ev event
}

// eventLog collects the front daemon's events by epoch as they are read.
type eventLog struct {
	mu      sync.Mutex
	byEpoch map[int]eventRec
	dups    int
	changed chan struct{} // closed and replaced on every arrival
}

func newEventLog() *eventLog {
	return &eventLog{byEpoch: map[int]eventRec{}, changed: make(chan struct{})}
}

func (l *eventLog) add(r eventRec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.byEpoch[r.ev.Epoch]; ok {
		l.dups++
	} else {
		l.byEpoch[r.ev.Epoch] = r
	}
	close(l.changed)
	l.changed = make(chan struct{})
}

// wait blocks until every epoch in es has an event or the deadline passes.
func (l *eventLog) wait(deadline time.Time, es ...int) bool {
	for {
		l.mu.Lock()
		missing := false
		for _, e := range es {
			if _, ok := l.byEpoch[e]; !ok {
				missing = true
				break
			}
		}
		ch := l.changed
		l.mu.Unlock()
		if !missing {
			return true
		}
		d := time.Until(deadline)
		if d <= 0 {
			return false
		}
		t := time.NewTimer(d)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

func (l *eventLog) get(e int) (eventRec, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.byEpoch[e]
	return r, ok
}

// daemon is one dcsd process.
type daemon struct {
	name     string
	cmd      *exec.Cmd
	httpAddr string
	wantAddr int           // address lines to wait for
	addrs    chan string   // address lines, in print order
	done     chan struct{} // closed when the stdout reader ends
	stderr   *os.File
}

// startDaemon execs dcsd with stdout piped (address lines, and events when
// events is non-nil) and stderr sent to a file: the per-digest log line is
// real cost, but nobody reads it.
func startDaemon(bin, dir, name string, wantAddr int, events *eventLog, httpAddr string, args ...string) (*daemon, error) {
	errf, err := os.Create(filepath.Join(dir, name+".stderr"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = errf
	// Should the benchmark itself be killed, the kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		errf.Close()
		return nil, err
	}
	d := &daemon{name: name, cmd: cmd, httpAddr: httpAddr, wantAddr: wantAddr,
		addrs: make(chan string, wantAddr), done: make(chan struct{}), stderr: errf}
	if err := cmd.Start(); err != nil {
		errf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go d.readStdout(out, events)
	return d, nil
}

func (d *daemon) readStdout(out io.Reader, events *eventLog) {
	defer close(d.done)
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	seen := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) > 0 && line[0] == '{' {
			at := time.Now()
			var ev event
			if events != nil && json.Unmarshal(line, &ev) == nil {
				events.add(eventRec{at: at, ev: ev})
			}
			continue
		}
		if seen < d.wantAddr {
			seen++
			d.addrs <- strings.TrimSpace(string(line))
		}
	}
	// Drain the pipe to EOF so the process never blocks on a full pipe.
	_, _ = io.Copy(io.Discard, out)
}

// awaitAddrs returns the daemon's address lines once all are printed.
func (d *daemon) awaitAddrs(deadline time.Time) ([]string, error) {
	var out []string
	for len(out) < d.wantAddr {
		select {
		case a := <-d.addrs:
			out = append(out, a)
		case <-d.done:
			return nil, fmt.Errorf("%s exited before printing its addresses (see %s)", d.name, d.stderr.Name())
		case <-time.After(time.Until(deadline)):
			return nil, fmt.Errorf("%s printed no address line in time", d.name)
		}
	}
	return out, nil
}

// stop ends the daemon: SIGTERM (dcsd drains and exits) or SIGKILL, then
// waits for the process and its stdout reader.
func (d *daemon) stop(kill bool) error {
	sig := syscall.SIGTERM
	if kill {
		sig = syscall.SIGKILL
	}
	_ = d.cmd.Process.Signal(sig) // already exited is fine: Wait reports it
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-exited
	}
	<-d.done
	d.stderr.Close()
	var ee *exec.ExitError
	if kill && errors.As(err, &ee) {
		return nil
	}
	return err
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuTicks returns the process's user+system CPU in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", d.name)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat for %s", d.name)
	}
	return u + st, nil
}

// clockTicks is USER_HZ, fixed at 100 on Linux for /proc/<pid>/stat.
const clockTicks = 100

// peakRSSKiB is the process's VmHWM.
func (d *daemon) peakRSSKiB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseInt(f[1], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", d.name)
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

// scrape reads the daemon's /metrics, retrying while its HTTP listener
// comes up.
func (d *daemon) scrape(deadline time.Time) (map[string]float64, error) {
	for {
		resp, err := httpClient.Get("http://" + d.httpAddr + "/metrics")
		if err == nil {
			m, perr := metrics.ParseText(resp.Body)
			resp.Body.Close()
			return m, perr
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("scrape %s: %w", d.name, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deployment is the dcsd process set of one workload: a single daemon, or a
// coordinator in front of shards. The last daemon is the front one: it
// takes the generator's traffic and prints the events.
type deployment struct {
	daemons []*daemon
	ingest  string // where collectors send (TCP or UDP address)
	events  *eventLog
	setup   time.Duration
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func freePorts(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		a, err := freePort()
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// launch starts the workload's daemons and times set-up: from the first
// exec until every listener printed its address line. Journal recovery runs
// before the shards listen, so it is inside that interval.
func launch(w workload, bin, dir string) (*deployment, error) {
	win := "-window=" + tick.String()
	dep := &deployment{events: newEventLog()}
	if w.shards == 0 {
		ports, err := freePorts(1)
		if err != nil {
			return nil, err
		}
		args := []string{"-listen", "127.0.0.1:0", "-http", ports[0], "-events", "-", win}
		want := 1
		if w.transport == "udp" {
			args = append(args, "-udp", "127.0.0.1:0")
			want = 2
		}
		if w.slide > 1 {
			args = append(args, "-slide", strconv.Itoa(w.slide))
		}
		start := time.Now()
		d, err := startDaemon(bin, dir, "dcsd", want, dep.events, ports[0], args...)
		if err != nil {
			return nil, err
		}
		dep.daemons = []*daemon{d}
		addrs, err := d.awaitAddrs(start.Add(60 * time.Second))
		if err != nil {
			dep.stop(true)
			return nil, err
		}
		dep.setup = time.Since(start)
		dep.ingest = addrs[len(addrs)-1]
		return dep, nil
	}
	// Coordinator plus shards: every address is fixed up front so the
	// processes can start together.
	ports, err := freePorts(2 + 2*w.shards)
	if err != nil {
		return nil, err
	}
	coordAddr, coordHTTP := ports[0], ports[1]
	shardAddrs := make([]string, w.shards)
	start := time.Now()
	for i := 0; i < w.shards; i++ {
		shardAddrs[i] = ports[2+2*i]
		args := []string{"-listen", shardAddrs[i], "-http", ports[3+2*i], win,
			"-shards", strconv.Itoa(w.shards), "-shard-of", strconv.Itoa(i), "-coordinator", coordAddr}
		if w.journal {
			args = append(args, "-journal", filepath.Join(dir, "journal"))
		}
		if w.slide > 1 {
			args = append(args, "-slide", strconv.Itoa(w.slide))
		}
		d, err := startDaemon(bin, dir, fmt.Sprintf("shard-%d", i), 1, nil, ports[3+2*i], args...)
		if err != nil {
			dep.stop(true)
			return nil, err
		}
		dep.daemons = append(dep.daemons, d)
	}
	// The coordinator's tick only drains the merge, so it runs faster than
	// the shards': a verdict then waits at most coordTick for the merge, not
	// a tick whose phase against the shards' is fixed for the whole run.
	args := []string{"-listen", coordAddr, "-http", coordHTTP, "-events", "-", "-window=" + coordTick.String(),
		"-shards", strconv.Itoa(w.shards), "-coordinator", strings.Join(shardAddrs, ",")}
	if w.slide > 1 {
		args = append(args, "-slide", strconv.Itoa(w.slide))
	}
	co, err := startDaemon(bin, dir, "coordinator", 1, dep.events, coordHTTP, args...)
	if err != nil {
		dep.stop(true)
		return nil, err
	}
	dep.daemons = append(dep.daemons, co)
	for _, d := range dep.daemons {
		if _, err := d.awaitAddrs(start.Add(60 * time.Second)); err != nil {
			dep.stop(true)
			return nil, err
		}
	}
	dep.setup = time.Since(start)
	dep.ingest = coordAddr
	return dep, nil
}

func (dep *deployment) stop(kill bool) error {
	var first error
	// Coordinator first: it is last in the list and shards push to it.
	for i := len(dep.daemons) - 1; i >= 0; i-- {
		if err := dep.daemons[i].stop(kill); err != nil && first == nil {
			first = fmt.Errorf("%s: %w", dep.daemons[i].name, err)
		}
	}
	return first
}

func (dep *deployment) cpuTicks() (int64, error) {
	var t int64
	for _, d := range dep.daemons {
		n, err := d.cpuTicks()
		if err != nil {
			return 0, err
		}
		t += n
	}
	return t, nil
}

func (dep *deployment) peakRSSMiB() (float64, error) {
	var kib int64
	for _, d := range dep.daemons {
		n, err := d.peakRSSKiB()
		if err != nil {
			return 0, err
		}
		kib += n
	}
	return float64(kib) / 1024, nil
}

// scrapeAll reads every daemon's /metrics.
func (dep *deployment) scrapeAll() ([]map[string]float64, error) {
	out := make([]map[string]float64, len(dep.daemons))
	for i, d := range dep.daemons {
		m, err := d.scrape(time.Now().Add(10 * time.Second))
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// writeJournals writes the recovered epochs' digests into each shard's
// journal directory exactly as a crashed shard would have left them:
// appended, never marked analyzed. Each shard gets the first w.recover
// epochs it owns.
func writeJournals(in *inputs, dir string) (epochs []int, frames int, err error) {
	w := in.w
	part := shard.Partition{Shards: w.shards, Slide: w.slide}
	for i := 0; i < w.shards; i++ {
		jdir := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return nil, 0, err
		}
		n := 0
		var msgs []transport.Message
		for e := 1; n < w.recover; e++ {
			if part.Owner(e) != i {
				continue
			}
			n++
			epochs = append(epochs, e)
			for _, o := range in.epoch(e, 1) {
				msgs = append(msgs, o.m)
			}
		}
		if err := appendJournal(jdir, msgs); err != nil {
			return nil, 0, err
		}
		frames += len(msgs)
	}
	sort.Ints(epochs)
	return epochs, frames, nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
