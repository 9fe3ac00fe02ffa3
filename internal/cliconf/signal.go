package cliconf

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// InterruptContext returns a context that the first SIGINT or SIGTERM
// cancels, so a command can let its in-flight work drain. Before the
// context is done the handler is uninstalled and both signals get their
// default disposition back: a second signal terminates the process at
// once, even while a cell with no virtual-time bound is still running.
// Calling the returned cancel func releases the handler too.
func InterruptContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigs:
		case <-ctx.Done():
		}
		signal.Stop(sigs)
		cancel()
	}()
	return ctx, cancel
}
