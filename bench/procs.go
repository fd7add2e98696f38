package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// supervisor owns every daemon a workload starts. Each PID is appended to
// a pidfile the parent benchmark process reads after the workload child
// has exited, so a child that dies without running its own clean-up
// (panic on another goroutine, SIGKILL) still has its daemons reaped by
// saved PID.
type supervisor struct {
	dir     string // scratch directory: pidfile and daemon logs
	pidfile string

	mu    sync.Mutex
	procs []*proc
}

type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
}

func newSupervisor(dir string) (*supervisor, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating scratch dir: %w", err)
	}
	return &supervisor{dir: dir, pidfile: filepath.Join(dir, "pids")}, nil
}

// checkPortFree refuses an address something already listens on: a daemon
// that failed to bind would otherwise leave the benchmark talking to a
// stranger.
func checkPortFree(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("port %s is taken (refusing to run): %w", addr, err)
	}
	return ln.Close()
}

// start launches bin with args, its stderr and stdout appended to
// <dir>/<name>.log, and records its PID.
func (s *supervisor) start(name, bin string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(filepath.Join(s.dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening log for %s: %w", name, err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we signalled carries nothing
		close(p.done)
	}()
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
	if err := appendLine(s.pidfile, strconv.Itoa(cmd.Process.Pid)); err != nil {
		s.stop(p)
		return nil, err
	}
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop ends one daemon: SIGTERM, then SIGKILL after a grace period, and
// returns only once it has been waited for.
func (s *supervisor) stop(p *proc) {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(3 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
}

// stopAll ends every daemon started so far, concurrently.
func (s *supervisor) stopAll() {
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			s.stop(p)
		}(p)
	}
	wg.Wait()
}

// killAll is the signal-handler path: no grace period.
func (s *supervisor) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.procs {
		_ = p.cmd.Process.Kill()
	}
}

func appendLine(path, line string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("recording pid: %w", err)
	}
	if _, err := f.WriteString(line + "\n"); err != nil {
		f.Close()
		return fmt.Errorf("recording pid: %w", err)
	}
	return f.Close()
}

// reapByPidfile kills every still-living process the pidfile names whose
// executable lives under binDir (a recycled PID now owned by a stranger is
// left alone), waits until each is gone, and returns the PIDs it had to
// kill.
func reapByPidfile(pidfile, binDir string) ([]int, error) {
	f, err := os.Open(pidfile)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var killed []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		pid, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil || pid <= 1 {
			continue
		}
		if !ownedDaemon(pid, binDir) {
			continue
		}
		_ = syscall.Kill(pid, syscall.SIGKILL)
		killed = append(killed, pid)
	}
	if err := sc.Err(); err != nil {
		return killed, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, pid := range killed {
		for ownedDaemon(pid, binDir) {
			if time.Now().After(deadline) {
				return killed, fmt.Errorf("pid %d survived SIGKILL", pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return killed, nil
}

// ownedDaemon reports whether pid is alive, not a zombie, and runs a
// binary the benchmark built.
func ownedDaemon(pid int, binDir string) bool {
	exe, err := os.Readlink(fmt.Sprintf("/proc/%d/exe", pid))
	if err != nil {
		return false // gone, or a zombie (no exe link)
	}
	exe = strings.TrimSuffix(exe, " (deleted)")
	return strings.HasPrefix(exe, binDir+string(os.PathSeparator))
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB; 0 when
// the process is gone.
func rssPeakMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuMillis reads the process's consumed user+system CPU time in ms from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms on Linux).
func cpuMillis(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	const tickMs = 10 // USER_HZ is 100 on every Linux ABI Go supports
	return (utime + stime) * tickMs
}
