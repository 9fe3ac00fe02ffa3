package cliconf

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

const signalHelperEnv = "CLICONF_SIGNAL_HELPER"

// TestSecondSignalTerminates re-executes the test binary as a helper that
// takes the first SIGTERM as a drain request and then never finishes, like
// a cell with no virtual-time bound. The second SIGTERM must kill it.
func TestSecondSignalTerminates(t *testing.T) {
	if os.Getenv(signalHelperEnv) == "1" {
		ctx, cancel := InterruptContext()
		defer cancel()
		fmt.Println("ready")
		<-ctx.Done()
		fmt.Println("draining")
		for {
			time.Sleep(time.Hour)
		}
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestSecondSignalTerminates$")
	cmd.Env = append(os.Environ(), signalHelperEnv+"=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	expect := func(want string) {
		t.Helper()
		if !lines.Scan() || lines.Text() != want {
			_ = cmd.Process.Kill()
			t.Fatalf("helper printed %q (err %v), want %q", lines.Text(), lines.Err(), want)
		}
	}
	expect("ready")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	expect("draining")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-exited
		t.Fatal("helper still running 10s after the second SIGTERM")
	}
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
		t.Fatalf("helper ended with %v, want death by SIGTERM", cmd.ProcessState)
	}
}
