package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// bootTimeout bounds one daemon boot (training included).
const bootTimeout = 60 * time.Second

// daemon is one tracond process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	setup  time.Duration // process start until the portfile was written
	logf   *os.File
	waited chan error
}

// startDaemon boots bin with args plus a portfile in dir and waits for the
// portfile. The daemon's log goes to a file in dir.
func startDaemon(bin string, args []string, dir string) (*daemon, error) {
	portFile := filepath.Join(dir, "port")
	_ = os.Remove(portFile)
	logf, err := os.Create(filepath.Join(dir, "tracond.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", "127.0.0.1:0", "-portfile", portFile)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = logf
	// A benchmark killed mid-run must not leave its daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, logf: logf, waited: make(chan error, 1)}
	go func() { d.waited <- cmd.Wait() }()
	for {
		if b, err := os.ReadFile(portFile); err == nil && strings.HasSuffix(string(b), "\n") {
			d.setup = time.Since(t0)
			d.addr = strings.TrimSpace(string(b))
			// tracond writes the portfile before it installs its SIGTERM
			// handler; a first answered request shows both are in place,
			// so a later stop drains instead of killing the process.
			if err := d.awaitServing(t0); err != nil {
				d.stop()
				return nil, err
			}
			return d, nil
		}
		select {
		case err := <-d.waited:
			d.waited <- err
			logf.Close()
			return nil, fmt.Errorf("tracond exited during boot (%v); log in %s", err, logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > bootTimeout {
			d.stop()
			return nil, fmt.Errorf("tracond did not write its portfile within %v", bootTimeout)
		}
	}
}

// awaitServing polls /healthz until the daemon answers.
func (d *daemon) awaitServing(t0 time.Time) error {
	c := &http.Client{Timeout: time.Second}
	for {
		if _, err := getBody(c, "http://"+d.addr+"/healthz"); err == nil {
			c.CloseIdleConnections()
			return nil
		}
		if time.Since(t0) > bootTimeout {
			return fmt.Errorf("tracond at %s did not answer /healthz within %v", d.addr, bootTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for a clean exit, and kills the process if
// it does not drain in time.
func (d *daemon) stop() error {
	defer d.logf.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.waited:
		if err != nil {
			return fmt.Errorf("tracond exit: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.waited
		return errors.New("tracond did not drain within 20s; killed")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuTime returns utime+stime of pid from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are space separated, utime and stime being the
	// 14th and 15th fields overall.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad utime/stime in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// vmHWM returns the peak resident set size of pid in MiB, from
// /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// getBody fetches url and returns the body of a 200 response.
func getBody(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}
