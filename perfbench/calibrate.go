package main

import (
	"fmt"
	"io"
	"net"
	"time"

	"pico/internal/runtime"
)

// calibrate prints the one-off measurements the workload table is built
// from: the loopback bandwidth, and the per-worker capacities
// runtime.DiscoverCluster fits for the workload's model on its native
// workers. The table keeps the printed numbers; runs never recompute them.
func calibrate(w *workload, out io.Writer) error {
	bps, err := loopbackBandwidth(600<<10, 256)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loopback_Bps %.4g\n", bps)
	lc, err := runtime.StartLocalCluster(w.workers, nil, runtime.WithParallelism(w.workerPar))
	if err != nil {
		return err
	}
	defer func() { _ = lc.Close() }()
	addrs := make([]string, w.workers)
	for i := range addrs {
		addrs[i] = lc.Addrs[i]
	}
	cl, err := runtime.DiscoverCluster(addrs, w.model(), weightSeed, 5, bps)
	if err != nil {
		return err
	}
	for i, d := range cl.Devices {
		fmt.Fprintf(out, "capacity_%d_MACps %.4g\n", i, d.Capacity)
	}
	return nil
}

// loopbackBandwidth times n messages of size bytes through one loopback
// TCP connection.
func loopbackBandwidth(size, n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	got := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		defer c.Close()
		_, err = io.CopyN(io.Discard, c, int64(size*n))
		got <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	buf := make([]byte, size)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Write(buf); err != nil {
			return 0, err
		}
	}
	if err := <-got; err != nil {
		return 0, err
	}
	return float64(size*n) / time.Since(start).Seconds(), nil
}
