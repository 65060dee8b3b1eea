package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running credoserved process, launched exactly as
// deployed: its defaults plus loopback listeners on ephemeral ports.
type daemon struct {
	cmd  *exec.Cmd
	addr string // query plane host:port
	ops  string // ops plane host:port
	done chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

// launchTimeout bounds one launch, GO-scale ingest included.
const launchTimeout = 60 * time.Second

// launch starts the daemon serving the graph pair as "g" and returns
// once /healthz answers, with the time that took: setup_s.
func launch(bin string, f graphFiles) (*daemon, time.Duration, error) {
	start := time.Now()
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-listen", "127.0.0.1:0", "-ops", "127.0.0.1:0",
		"-load", "g=mtx:"+f.Nodes+","+f.Edges)
	d.cmd.Stderr = &lockedWriter{d: d}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	register(d)
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()

	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "ops plane on http://"); ok {
				d.ops, _, _ = strings.Cut(rest, "/")
			}
			if strings.HasPrefix(line, "serving ") {
				_, rest, _ := strings.Cut(line, " on http://")
				d.addr, _, _ = strings.Cut(rest, "/")
				ready <- nil
				break
			}
		}
		// Keep draining so the daemon never blocks on a full pipe.
		io.Copy(io.Discard, out)
		select {
		case ready <- fmt.Errorf("daemon exited before serving: %s", d.stderrTail()):
		default:
		}
	}()

	select {
	case err = <-ready:
	case <-time.After(launchTimeout):
		err = fmt.Errorf("daemon not serving after %v", launchTimeout)
	}
	if err == nil && (d.addr == "" || d.ops == "") {
		err = fmt.Errorf("daemon did not report both listen addresses")
	}
	if err == nil {
		err = d.healthz()
	}
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func (d *daemon) healthz() error {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + d.addr + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz answered %d", resp.StatusCode)
	}
	return nil
}

// stop shuts the daemon down gracefully, killing it if it lingers, and
// waits until the process has exited.
func (d *daemon) stop() {
	defer unregister(d)
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stderr.String()
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return strings.TrimSpace(s)
}

type lockedWriter struct{ d *daemon }

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	if w.d.stderr.Len() < 1<<16 {
		w.d.stderr.Write(p)
	}
	return len(p), nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/PID/stat times
// (100 on every mainstream Linux configuration).
const clockTicks = 100

// cpuTime returns the daemon's user+system CPU time so far, summed over
// all of its threads.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's resident-set high-water mark (VmHWM) in
// bytes.
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads the ops plane's Prometheus text and sums every sample of
// each metric name across its label sets.
func (d *daemon) scrape() (map[string]float64, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + d.ops + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}
