package runtime

import (
	"strings"
	"testing"

	"pico/internal/nn"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// dtypeTestWorker dials a fresh one-worker cluster with a small float model
// loaded and returns the connection, the model and a full input map.
func dtypeTestWorker(t *testing.T) (*workerClient, *nn.Model, tensor.Tensor) {
	t.Helper()
	lc := startCluster(t, 1, nil)
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.close() })
	m := nn.ToyChain("dtype", 2, 0, 4, 16)
	if err := wc.loadModel(wire.SpecFromModel(m), 3); err != nil {
		t.Fatal(err)
	}
	return wc, m, tensor.RandomInput(m.Input, 1)
}

// sendRaw writes an exec frame with a hand-built header, bypassing
// startExec's dtype bookkeeping.
func sendRaw(t *testing.T, wc *workerClient, hdr wire.ExecHeader, payload []byte) *call {
	t.Helper()
	id, c, err := wc.register()
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.conn.SendExec(id, &hdr, payload); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWorkerRejectsUnknownDType: an exec frame whose dtype the wire does not
// define is answered with an error frame — not decoded and computed as
// float32 — and the worker keeps serving the connection.
func TestWorkerRejectsUnknownDType(t *testing.T) {
	wc, m, in := dtypeTestWorker(t)
	hdr := wire.ExecHeader{
		TaskID: 1, From: 0, To: m.NumLayers(), OutLo: 0, OutHi: m.Output().H,
		TileC: in.C, TileH: in.H, TileW: in.W, DType: 7,
		ModelName: m.Name, Seed: 3,
	}
	payload, _ := wire.TensorBytes(in)
	msg, err := sendRaw(t, wc, hdr, payload).wait()
	if err != nil {
		t.Fatal(err)
	}
	defer wire.PutBuffer(msg.Payload)
	if msg.Type != wire.MsgError {
		t.Fatalf("dtype 7 exec answered with %v, want %v", msg.Type, wire.MsgError)
	}
	var eh wire.ErrorHeader
	if err := msg.DecodeHeader(&eh); err != nil || !strings.Contains(eh.Message, "dtype 7") {
		t.Fatalf("error frame %q (decode err %v) does not name the dtype", eh.Message, err)
	}

	hdr.DType = wire.DTypeFloat32
	out, _, err := wc.exec(hdr, in)
	if err != nil {
		t.Fatalf("exec after the rejected frame: %v", err)
	}
	ref, err := tensor.NewExecutor(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, out) {
		t.Fatal("exec after the rejected frame differs from the local reference")
	}
}

// TestWaitExecRejectsDTypeMismatch: a result whose dtype differs from the
// request's is an error, whichever dtype was requested.
func TestWaitExecRejectsDTypeMismatch(t *testing.T) {
	wc, m, in := dtypeTestWorker(t)
	hdr := wire.ExecHeader{
		TaskID: 2, From: 0, To: m.NumLayers(), OutLo: 0, OutHi: m.Output().H,
		TileC: in.C, TileH: in.H, TileW: in.W, DType: wire.DTypeFloat32,
		ModelName: m.Name, Seed: 3,
	}
	payload, _ := wire.TensorBytes(in)
	c := sendRaw(t, wc, hdr, payload)
	c.dtype = wire.DTypeInt8 // the caller expects int8; the worker answers float32
	if _, _, transient, err := c.waitExec(0); err == nil || transient || !strings.Contains(err.Error(), "dtype") {
		t.Fatalf("mismatched result dtype: transient=%v err=%v, want a deterministic dtype error", transient, err)
	}
	if _, _, err := wc.exec(hdr, in); err != nil {
		t.Fatalf("exec after the mismatch: %v", err)
	}
}
