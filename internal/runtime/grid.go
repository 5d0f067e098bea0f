package runtime

import (
	"fmt"
	"sync"

	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// GridExecutor distributes a fused model segment across workers as a
// DeepThings-style 2D tile grid: split the input into (overlapping)
// rectangular regions, execute each tile remotely, stitch the output grid.
// It is the single-stage grid counterpart of the strip-based Pipeline.
type GridExecutor struct {
	model   *nn.Model
	from    int
	to      int
	tiles   []partition.Rect
	calc    *partition.Calc
	seed    int64
	quant   bool
	clients []*workerClient
}

// NewGridExecutor connects to one worker per tile and loads the model.
func NewGridExecutor(m *nn.Model, from, to int, tiles []partition.Rect, addrs []string, seed int64) (*GridExecutor, error) {
	return newGridExecutor(m, from, to, tiles, addrs, seed, false)
}

// NewGridExecutorQuant is NewGridExecutor for int8 plans: the workers
// additionally build and calibrate the quantized executor, and tiles are
// shipped/returned as raw int8 bytes (a quarter of the float wire size).
// The stitched result is byte-identical to a local whole-map RunQ.
func NewGridExecutorQuant(m *nn.Model, from, to int, tiles []partition.Rect, addrs []string, seed int64) (*GridExecutor, error) {
	return newGridExecutor(m, from, to, tiles, addrs, seed, true)
}

func newGridExecutor(m *nn.Model, from, to int, tiles []partition.Rect, addrs []string, seed int64, quant bool) (*GridExecutor, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if from < 0 || to > m.NumLayers() || from >= to {
		return nil, fmt.Errorf("runtime: invalid grid segment [%d,%d)", from, to)
	}
	if len(tiles) == 0 || len(tiles) != len(addrs) {
		return nil, fmt.Errorf("runtime: %d tiles for %d workers", len(tiles), len(addrs))
	}
	if seed == 0 {
		seed = 1
	}
	ge := &GridExecutor{
		model: m,
		from:  from, to: to,
		tiles: tiles,
		calc:  partition.NewCalc(m),
		seed:  seed,
		quant: quant,
	}
	if err := ge.validateTiles(); err != nil {
		return nil, err
	}
	spec := wire.SpecFromModel(m)
	for _, addr := range addrs {
		wc, err := dialWorker(addr)
		if err != nil {
			ge.Close()
			return nil, err
		}
		ge.clients = append(ge.clients, wc)
		if err := wc.loadModelQuant(spec, seed, quant); err != nil {
			ge.Close()
			return nil, err
		}
	}
	return ge, nil
}

// validateTiles fails grid construction — rather than a mid-inference worker
// error — when the tile set cannot execute: empty tiles (typically from
// over-partitioning a small output map), or more than one tile over a
// segment containing a layer that consumes the whole feature map (fully
// connected, global average pool). Such a segment cannot be 2D-partitioned —
// every tile would back-propagate to the full input — so the caller must
// split the segment at that layer or run it as a single full tile.
func (ge *GridExecutor) validateTiles() error {
	for k, tile := range ge.tiles {
		if tile.Empty() {
			return fmt.Errorf("runtime: empty tile %d", k)
		}
	}
	if len(ge.tiles) > 1 {
		for i := ge.from; i < ge.to; i++ {
			if ge.model.Layers[i].NeedsFullInput() {
				return fmt.Errorf("runtime: layer %d (%s) needs the full input map and cannot be grid-partitioned across %d tiles; split the segment before it",
					i, ge.model.Layers[i].Name, len(ge.tiles))
			}
		}
	}
	return nil
}

// Infer executes the segment on one input feature map (the full map at
// boundary from) and returns the stitched output.
func (ge *GridExecutor) Infer(taskID int64, input tensor.Tensor) (tensor.Tensor, error) {
	out, err := ge.infer(taskID, input)
	f, _ := out.(tensor.Tensor)
	return f, err
}

// InferQ executes the segment in int8 on one quantized input map (the full
// map at boundary from, at that boundary's calibrated scale) and returns the
// stitched int8 output — byte-identical to a local whole-map RunQ of the
// same segment.
func (ge *GridExecutor) InferQ(taskID int64, input tensor.QTensor) (tensor.QTensor, error) {
	out, err := ge.infer(taskID, input)
	q, _ := out.(tensor.QTensor)
	return q, err
}

// infer slices the input into every tile's input region, executes the
// tiles concurrently on their workers and stitches the output grid. The
// input's dtype must match the executor's: a quantized grid's workers run
// the int8 executor, a float grid's the float32 one.
func (ge *GridExecutor) infer(taskID int64, input tile) (tile, error) {
	if _, quant := input.(tensor.QTensor); quant != ge.quant {
		return nil, fmt.Errorf("runtime: grid executor built with quant=%v cannot run a %T input", ge.quant, input)
	}
	type result struct {
		t   tile
		err error
	}
	results := make([]result, len(ge.tiles))
	var wg sync.WaitGroup
	for k, rect := range ge.tiles {
		need := ge.calc.SegmentRects(ge.from, ge.to, rect)[0]
		sub := sliceTile(input, need)
		wg.Add(1)
		go func(k int, wc *workerClient, sub tile, need, rect partition.Rect) {
			defer wg.Done()
			c, err := wc.startExec(wire.ExecHeader{
				TaskID: taskID,
				From:   ge.from, To: ge.to,
				OutLo: rect.Rows.Lo, OutHi: rect.Rows.Hi,
				InLo:     need.Rows.Lo,
				OutColLo: rect.Cols.Lo, OutColHi: rect.Cols.Hi,
				InColLo:   need.Cols.Lo,
				ModelName: ge.model.Name,
				Seed:      ge.seed,
			}, sub)
			recycleTile(sub) // fully serialized into the request
			if err != nil {
				results[k].err = err
				return
			}
			results[k].t, _, _, results[k].err = c.waitExec(0)
		}(k, ge.clients[k], sub, need, rect)
	}
	wg.Wait()
	outs := make([]tile, len(ge.tiles))
	for k := range results {
		if results[k].err != nil {
			return nil, results[k].err
		}
		outs[k] = results[k].t
	}
	outShape := ge.model.OutShape(ge.to - 1)
	stitched, err := stitchTiles(outs, ge.tiles, outShape.H, outShape.W)
	if err == nil {
		for _, o := range outs {
			recycleTile(o) // copied into the stitched map
		}
	}
	return stitched, err
}

// Close disconnects the workers.
func (ge *GridExecutor) Close() error {
	var firstErr error
	for _, wc := range ge.clients {
		if wc == nil {
			continue
		}
		if err := wc.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
