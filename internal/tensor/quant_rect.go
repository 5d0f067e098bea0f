package tensor

import (
	"fmt"

	"pico/internal/nn"
	"pico/internal/partition"
)

// Quantized execution over DeepThings-style 2D grid tiles. The rect kernels
// reuse the exact row primitives of the whole-map int8 path — qconvRowBlk
// already takes global column geometry, and the requantize epilogue is the
// shared requantRow — so a stitched grid run is byte-identical to a local
// RunQ: per-output-pixel accumulation touches the same taps in an order
// wrapping int32 addition is free to permute, and every float decision goes
// through the same epilogue instructions.

// qconvForwardRect computes the output rectangle out of an int8 convolution
// from a tile holding input rows [inRowLo, inRowLo+in.H) and columns
// [inColLo, inColLo+in.W) of a feature map with global extent
// inHGlobal x inWGlobal. It is the general register-tiled int8 kernel —
// strips run it at full width: one work unit is one output row of one
// oc-block, and each input-row sweep feeds up to ocBlockWidth int32
// accumulator rows through the always-dense packed taps.
func qconvForwardRect(in QTensor, inRowLo, inColLo, inHGlobal, inWGlobal int, l *nn.Layer, qw *qconvWeights, out partition.Rect, par int) QTensor {
	outRows := out.Rows.Len()
	outCols := out.Cols.Len()
	res := AllocQ(l.OutC, outRows, outCols, 1)
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	icg := in.C / groups
	grain := grainFor(ocBlockWidth * icg * l.KH * l.KW * outCols)
	parallelForGrain(len(qw.blocks)*outRows, par, grain, func(lo, hi int) {
		accBuf := make([]int32, ocBlockWidth*outCols)
		for u := lo; u < hi; u++ {
			blk := &qw.blocks[u/outRows]
			or := u % outRows
			ohGlobal := out.Rows.Lo + or
			for i := range accBuf {
				accBuf[i] = 0
			}
			for g := 0; g < icg; g++ {
				ic := blk.icBase + g
				for kh := 0; kh < l.KH; kh++ {
					ihGlobal := ohGlobal*l.SH - l.PH + kh
					if ihGlobal < 0 || ihGlobal >= inHGlobal {
						continue // true top/bottom padding
					}
					ih := ihGlobal - inRowLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: rect qconv needs global row %d outside tile [%d,%d)", ihGlobal, inRowLo, inRowLo+in.H))
					}
					inRow := in.Data[(ic*in.H+ih)*in.W : (ic*in.H+ih+1)*in.W]
					pk32 := blk.packed32[(g*l.KH+kh)*l.KW*ocBlockWidth:]
					qconvRowBlk(accBuf, outCols, inRow, pk32, l.KW, l.SW, l.PW, out.Cols.Lo, inColLo, inWGlobal, outCols)
				}
			}
			for b := 0; b < blk.width; b++ {
				oc := blk.oc0 + b
				dst := res.Data[(oc*outRows+or)*outCols : (oc*outRows+or+1)*outCols]
				requantRow(dst, accBuf[b*outCols:(b+1)*outCols], qw.effScale[oc], qw.effBias[oc], l.Act)
			}
		}
	})
	return res
}

// qpoolForwardRect is the rectangular-tile int8 pool. Per-cell like
// qpoolForwardRef — the window math (max over int8, or
// quantClamp(sum/count)) is identical to the whole-map kernel, so tiles
// stitch byte-exactly.
func qpoolForwardRect(in QTensor, inRowLo, inColLo, inHGlobal, inWGlobal int, l *nn.Layer, out partition.Rect, par int) QTensor {
	outRows := out.Rows.Len()
	outCols := out.Cols.Len()
	res := AllocQ(in.C, outRows, outCols, in.Scale)
	isMax := l.Kind == nn.MaxPool
	grain := grainFor(l.KH * l.KW * outCols)
	parallelForGrain(in.C*outRows, par, grain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			c := t / outRows
			or := t % outRows
			dst := res.Data[t*outCols : (t+1)*outCols]
			ohGlobal := out.Rows.Lo + or
			for ocl := 0; ocl < outCols; ocl++ {
				owGlobal := out.Cols.Lo + ocl
				macc := int32(-128)
				var sum, count int32
				for kh := 0; kh < l.KH; kh++ {
					ihGlobal := ohGlobal*l.SH - l.PH + kh
					if ihGlobal < 0 || ihGlobal >= inHGlobal {
						continue
					}
					ih := ihGlobal - inRowLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: rect qpool needs global row %d outside tile [%d,%d)", ihGlobal, inRowLo, inRowLo+in.H))
					}
					for kw := 0; kw < l.KW; kw++ {
						iwGlobal := owGlobal*l.SW - l.PW + kw
						if iwGlobal < 0 || iwGlobal >= inWGlobal {
							continue
						}
						iw := iwGlobal - inColLo
						if iw < 0 || iw >= in.W {
							panic(fmt.Sprintf("tensor: rect qpool needs global col %d outside tile [%d,%d)", iwGlobal, inColLo, inColLo+in.W))
						}
						v := int32(in.At(c, ih, iw))
						if isMax {
							if v > macc {
								macc = v
							}
						} else {
							sum += v
						}
						count++
					}
				}
				if isMax {
					dst[ocl] = int8(macc)
				} else if count > 0 {
					dst[ocl] = quantClamp(float32(sum) / float32(count))
				} else {
					dst[ocl] = 0
				}
			}
			applyActivationQ(dst, l.Act)
		}
	})
	return res
}
