package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/mgmt"
	"repro/internal/naming"
)

// TestServeCallAndShutdown drives the binary's whole life through run:
// serve on a loopback port, read the printed references, invoke one from
// a second run in call mode, cancel the context as SIGTERM would, and
// check the node is really gone — run returned nil and the port is free.
func TestServeCallAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-serve", "-listen", "tcp://127.0.0.1:0"}, pw)
		pw.CloseWithError(err) // a run that ends before printing must not hang the scan
		done <- err
	}()

	var lines [][]string
	sc := bufio.NewScanner(pr)
	for len(lines) < 2 && sc.Scan() {
		lines = append(lines, strings.Fields(sc.Text()))
	}
	if len(lines) != 2 {
		t.Fatalf("serve printed %d reference lines, want 2: %v", len(lines), sc.Err())
	}
	if lines[0][1] != "Counter" || lines[1][1] != mgmt.InterfaceTypeName {
		t.Fatalf("reference lines = %v, want Counter then Management last", lines)
	}
	endpoint := lines[0][2]
	if lines[1][2] != endpoint || strings.HasSuffix(endpoint, ":0") {
		t.Fatalf("endpoints = %s, %s, want one bound port", endpoint, lines[1][2])
	}

	var out bytes.Buffer
	if err := run(ctx, []string{"-call", lines[0][0], "-endpoint", endpoint, "-op", "Inc", "-args", "5"}, &out); err != nil {
		t.Fatalf("call: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "termination: OK") || !strings.Contains(got, "result[0]:   5") {
		t.Fatalf("call printed:\n%s", got)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run did not return within 2s of cancellation")
	}
	l, err := net.Listen("tcp", naming.Endpoint(endpoint).Address())
	if err != nil {
		t.Fatalf("the node's port is still held after shutdown: %v", err)
	}
	l.Close()
}

func TestRunRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-serve", "-behavior", "teapot"},
		{"-call", "node1/c0/k0/o0/i0#1", "-op", "Inc"},
		{"-serve", "-listen", "pigeon://coop"},
	} {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("run(%v) = nil, want an error", args)
		}
	}
}
