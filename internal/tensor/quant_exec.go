package tensor

import (
	"fmt"

	"pico/internal/nn"
	"pico/internal/partition"
)

// Quantized execution. The executor calibrates one symmetric activation
// scale per layer boundary by running the float32 path once on a
// deterministic calibration input derived from (model input shape, seed) —
// the same trick that lets workers materialise weights without shipping
// them lets every node derive identical scales without shipping those
// either. Pool and global-pool boundaries inherit their input's scale
// (pooled values never leave the input range), so requantization happens
// only where conv/fc epilogues already touch every element.

// Quantized reports whether the executor was built with WithQuantized.
func (e *Executor) Quantized() bool { return e.quant }

// QuantScales returns the calibrated activation scale of every layer
// boundary: scales[i] is the scale of the feature map entering layer i,
// scales[NumLayers] the scale of the model output. Calibration runs once
// per executor and is deterministic in (model, seed).
func (e *Executor) QuantScales() ([]float32, error) {
	e.scOnce.Do(func() { e.scales, e.scErr = e.calibrate() })
	return e.scales, e.scErr
}

// QuantScales calibrates activation scales for (m, seed) without requiring
// the caller to hold an executor — the pipeline coordinator uses it to
// quantize task inputs at the first boundary.
func QuantScales(m *nn.Model, seed int64) ([]float32, error) {
	e, err := NewExecutor(m, seed, WithQuantized())
	if err != nil {
		return nil, err
	}
	return e.QuantScales()
}

// calibrationInput is the deterministic stand-in for a calibration set: the
// same (shape, seed) pair yields the identical tensor in every process.
func calibrationInput(s nn.Shape, seed int64) Tensor {
	rng := weightRNG(seed, "quant-calibration")
	t := New(s.C, s.H, s.W)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

// calibrate runs the float path once over the calibration input, recording
// the max-abs activation at every layer boundary.
func (e *Executor) calibrate() ([]float32, error) {
	scales := make([]float32, e.m.NumLayers()+1)
	in := calibrationInput(e.m.Input, e.seed)
	scales[0] = scaleFor(maxAbs(in.Data))
	shapes := e.m.Shapes()
	cur := tile{f: in}
	for i := 0; i < e.m.NumLayers(); i++ {
		s := e.modelStep(i, partition.FullRect(shapes[i].H, shapes[i].W), partition.FullRect(shapes[i+1].H, shapes[i+1].W))
		next, err := e.runLayer(s, cur)
		if err != nil {
			return nil, fmt.Errorf("tensor: calibrating layer %d (%s): %w", i, e.m.Layers[i].Name, err)
		}
		if i > 0 {
			cur.recycle()
		}
		switch e.m.Layers[i].Kind {
		case nn.MaxPool, nn.AvgPool, nn.GlobalAvgPool:
			scales[i+1] = scales[i]
		default:
			scales[i+1] = scaleFor(maxAbs(next.f.Data))
		}
		cur = next
	}
	cur.recycle()
	return scales, nil
}

// RunQ executes the whole model in int8 on a full float32 input: the input
// quantizes at the first boundary's calibrated scale and every stage
// boundary thereafter stays int8. The returned QTensor carries the output
// boundary's scale; Dequantize yields the float approximation. Like Run,
// RunQ never recycles the caller's tensor.
func (e *Executor) RunQ(in Tensor) (QTensor, error) {
	scales, err := e.QuantScales()
	if err != nil {
		return QTensor{}, err
	}
	run, trimmed := e.readRows(in)
	q := QuantizeTensor(run, scales[0])
	if trimmed {
		Recycle(run)
	}
	out, err := e.RunSegmentQ(0, e.m.NumLayers(), q, partition.Full(e.m.Output().H))
	RecycleQ(q)
	return out, err
}

// RunSegmentQ is the int8 counterpart of RunSegment: it executes layers
// [from, to) on an int8 tile, in, holding exactly the rows InputRange(from,
// to, out) of the boundary-from feature map at its full width, quantized at
// that boundary's calibrated scale. The tile's recorded scale must match
// the calibrated one bit for bit — a mismatch means the sender calibrated a
// different model or seed, which would silently corrupt every value.
func (e *Executor) RunSegmentQ(from, to int, in QTensor, out partition.Range) (QTensor, error) {
	res, err := e.runSegment(from, to, tile{dt: dtInt8, q: in}, partition.Rect{Rows: out}, true)
	return res.q, err
}

// RunSegmentRectQ executes layers [from, to) in int8, producing the output
// rectangle out of the segment's final layer. in must hold exactly the
// input region SegmentRects(from, to, out)[0], quantized at boundary from's
// calibrated scale (bit-exact, like RunSegmentQ). FullyConnected /
// GlobalAvgPool layers require the full-map tile, exactly as in the float
// rect path.
func (e *Executor) RunSegmentRectQ(from, to int, in QTensor, out partition.Rect) (QTensor, error) {
	res, err := e.runSegment(from, to, tile{dt: dtInt8, q: in}, out, false)
	return res.q, err
}

// qconvW returns the quantized convolution weights for key, derived from
// the float weights (through the shared cache) with per-output-channel
// scales at the layer's calibrated boundary scales.
func (e *Executor) qconvW(key string, l *nn.Layer, inC int, sIn, sOut float32) *qconvWeights {
	return e.weights(weightKey{layer: key, quant: true}, func() any {
		groups := max(l.Groups, 1)
		return genQConv(e.convW(key, l, inC), l, inC/groups, sIn, sOut)
	}).(*qconvWeights)
}

// qfcW returns the quantized fully connected weights for key.
func (e *Executor) qfcW(key string, l *nn.Layer, inElems int, sIn, sOut float32) *qfcWeights {
	return e.weights(weightKey{layer: key, quant: true}, func() any {
		return genQFC(e.fcW(key, l, inElems), l, inElems, sIn, sOut)
	}).(*qfcWeights)
}
