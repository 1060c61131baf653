package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// awakeEnv marks a process of this binary as an idle-priority spinner on the
// CPU it names.
//
// Open-loop traffic leaves the CPUs idle between requests. In a virtual
// machine an idle CPU halts, and waking it goes through the hypervisor at a
// cost that depends on what the neighbours are doing: at 300 requests per
// second that cost moved CPU per lookup by 14-23 % and p50 by 7 % between
// runs of the same code on a quiet host. One SCHED_IDLE process per CPU, which
// runs only when nothing else wants that CPU, keeps it from halting (what
// idle=poll does on bare metal) and brought the spreads to 6 % and 1 %. Closed-loop
// workloads keep the CPUs busy themselves and run without it: there the
// spinners cost throughput and steadied nothing.
const awakeEnv = "EMBLOOKUP_BENCH_AWAKE"

const schedIdle = 5 // SCHED_IDLE of sched_setscheduler(2)

// keepAwake starts one spinner per CPU this process may run on and returns
// the function that stops them and waits for them to end (calling it again
// does nothing). Where the scheduling policy cannot be set the run goes on
// without spinners.
func keepAwake(exe string, logf func(string, ...any)) (stop func()) {
	var mask [16]uint64
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		logf("keep-awake: reading the CPU affinity: %v; running without", errno)
		return func() {}
	}
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
		cmds = nil
	}
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), awakeEnv+"="+strconv.Itoa(cpu))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			logf("keep-awake: %v; running without", err)
			stop()
			return func() {}
		}
		cmds = append(cmds, cmd)
		// The spinner prints one line once it spins at idle priority; if it
		// could not get there it exits instead.
		if _, err := bufio.NewReader(out).ReadString('\n'); err != nil {
			logf("keep-awake: the spinner for CPU %d did not start; running without", cpu)
			stop()
			return func() {}
		}
	}
	return stop
}

// awakeMain is the spinner: pinned to one CPU, at idle priority, for ever.
func awakeMain(arg string) error {
	cpu, err := strconv.Atoi(arg)
	if err != nil || cpu < 0 || cpu >= 1024 {
		return fmt.Errorf("%s=%q: not a CPU number", awakeEnv, arg)
	}
	runtime.LockOSThread()
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", cpu, errno)
	}
	var priority int32
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); errno != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
	}
	fmt.Println("spinning")
	for {
	}
}
