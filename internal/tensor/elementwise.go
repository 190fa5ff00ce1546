package tensor

import "fmt"

// Elementwise kernels of the network's forward and backward passes: ReLU,
// its backward, the residual add, the convolution bias add, and batch
// normalization's three per-element passes. Each has a pure-Go loop, which is the reference and
// the only path off amd64, and an AVX2 twin (elementwise_amd64.s) chosen by
// the same useAVX2 gate as Gemm. The twins compute every element with the
// same IEEE operations in the same order — separate multiplies and adds,
// never a fused multiply-add — so the path taken never changes a bit.

// ReLU computes dst = a > 0 ? a : +0 elementwise. NaN and −0 map to +0
// (Go's builtin max would keep the NaN). dst may alias a.
func ReLU(dst, a *Tensor) {
	checkSameLen("ReLU", dst, a)
	if useAVX2 && len(dst.Data) > 0 {
		reluAVX2(&dst.Data[0], &a.Data[0], len(dst.Data))
		return
	}
	reluGeneric(dst.Data, a.Data)
}

// ReLUBackward computes dst = x > 0 ? grad : +0 elementwise: grad passes
// with its bits where x is positive, and +0 goes where x is ≤ 0 or NaN.
// dst may alias grad or x.
func ReLUBackward(dst, grad, x *Tensor) {
	checkSameLen("ReLUBackward", dst, grad, x)
	if useAVX2 && len(dst.Data) > 0 {
		reluBackwardAVX2(&dst.Data[0], &grad.Data[0], &x.Data[0], len(dst.Data))
		return
	}
	reluBackwardGeneric(dst.Data, grad.Data, x.Data)
}

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b *Tensor) {
	checkSameLen("Add", dst, a, b)
	if useAVX2 && len(dst.Data) > 0 {
		addAVX2(&dst.Data[0], &a.Data[0], &b.Data[0], len(dst.Data))
		return
	}
	addGeneric(dst.Data, a.Data, b.Data)
}

func reluGeneric(dst, a []float64) {
	dst = dst[:len(a)]
	for i, v := range a {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func reluBackwardGeneric(dst, grad, x []float64) {
	grad, x = grad[:len(dst)], x[:len(dst)]
	for i := range dst {
		if x[i] > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}

func addGeneric(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// AddBias writes dst[r*ldd+j] = src[r*lds+j] + bias[r] for every row
// r < len(bias) and column j < n: a per-row bias added while copying a
// strided matrix, as Conv2D scatters its product rows into feature maps.
// dst must not overlap src.
func AddBias(dst []float64, ldd int, src []float64, lds, n int, bias []float64) {
	rows := len(bias)
	if n < 0 || ldd < n || lds < n {
		panic(fmt.Sprintf("tensor: AddBias bad dims n=%d ldd=%d lds=%d", n, ldd, lds))
	}
	if rows == 0 || n == 0 {
		return
	}
	if len(dst) < (rows-1)*ldd+n || len(src) < (rows-1)*lds+n {
		panic(fmt.Sprintf("tensor: AddBias %d rows of %d: dst len %d, src len %d", rows, n, len(dst), len(src)))
	}
	if useAVX2 {
		addBiasAVX2(&dst[0], ldd, &src[0], lds, n, rows, &bias[0])
		return
	}
	addBiasGeneric(dst, ldd, src, lds, n, bias)
}

func addBiasGeneric(dst []float64, ldd int, src []float64, lds, n int, bias []float64) {
	for r, b := range bias {
		d, s := dst[r*ldd:r*ldd+n], src[r*lds:r*lds+n]
		for j, v := range s {
			d[j] = v + b
		}
	}
}

// The batch-norm kernels take activations laid out [rows][C][spatial], the
// layout of a BN layer's [N, C·spatial] input, with C = len of the
// per-channel vectors. Element (i, c, s) uses channel c's entries; every
// element is computed on its own, so the order of the walk is free.

// BatchNormTrain writes the training-mode normalization of x:
//
//	xhat = (x − mean[c]) · inv[c]
//	out  = gamma[c] · xhat + beta[c]
//
// out and xhat must not alias x or each other.
func BatchNormTrain(out, xhat, x []float64, spatial int, mean, inv, gamma, beta []float64) {
	rows := checkBN("BatchNormTrain", spatial, len(x), [][]float64{mean, inv, gamma, beta}, out, xhat)
	if useAVX2 && rows > 0 {
		bnTrainAVX2(&out[0], &xhat[0], &x[0], rows, len(mean), spatial, &mean[0], &inv[0], &gamma[0], &beta[0])
		return
	}
	bnTrainGeneric(out, xhat, x, spatial, mean, inv, gamma, beta)
}

// BatchNormEval writes the inference-mode normalization of x:
//
//	out = ((gamma[c] · (x − mean[c])) · inv[c]) + beta[c]
//
// out must not alias x.
func BatchNormEval(out, x []float64, spatial int, mean, inv, gamma, beta []float64) {
	rows := checkBN("BatchNormEval", spatial, len(x), [][]float64{mean, inv, gamma, beta}, out)
	if useAVX2 && rows > 0 {
		bnEvalAVX2(&out[0], &x[0], rows, len(mean), spatial, &mean[0], &inv[0], &gamma[0], &beta[0])
		return
	}
	bnEvalGeneric(out, x, spatial, mean, inv, gamma, beta)
}

// BatchNormBackward writes the batch-norm input gradient, given the
// per-channel sums Σdy and Σdy·x̂ over m = rows·spatial elements and the
// per-channel scale k = γ·inv/m:
//
//	dx = k[c] · ((m·dy − sumDy[c]) − xhat·sumDyXhat[c])
//
// dx must not alias dy or xhat.
func BatchNormBackward(dx, dy, xhat []float64, spatial int, m float64, k, sumDy, sumDyXhat []float64) {
	rows := checkBN("BatchNormBackward", spatial, len(dy), [][]float64{k, sumDy, sumDyXhat}, dx, xhat)
	if useAVX2 && rows > 0 {
		bnBackwardAVX2(&dx[0], &dy[0], &xhat[0], rows, len(k), spatial, m, &k[0], &sumDy[0], &sumDyXhat[0])
		return
	}
	bnBackwardGeneric(dx, dy, xhat, spatial, m, k, sumDy, sumDyXhat)
}

// checkBN validates a batch-norm kernel's operands and returns the row
// count: n elements must be whole rows of C·spatial, every per-channel
// vector must hold C entries, and every other operand n elements.
func checkBN(op string, spatial, n int, chans [][]float64, others ...[]float64) int {
	c := len(chans[0])
	for _, v := range chans[1:] {
		if len(v) != c {
			panic(fmt.Sprintf("tensor: %s channel vectors of %d and %d", op, c, len(v)))
		}
	}
	feat := c * spatial
	if feat <= 0 || n%feat != 0 {
		panic(fmt.Sprintf("tensor: %s %d elements for %d channels × %d", op, n, c, spatial))
	}
	for _, o := range others {
		if len(o) != n {
			panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, n, len(o)))
		}
	}
	return n / feat
}

func bnTrainGeneric(out, xhat, x []float64, spatial int, mean, inv, gamma, beta []float64) {
	for base := 0; base < len(x); {
		for c := range mean {
			mu, iv, g, b := mean[c], inv[c], gamma[c], beta[c]
			for j := base; j < base+spatial; j++ {
				xh := (x[j] - mu) * iv
				xhat[j] = xh
				out[j] = float64(g*xh) + b
			}
			base += spatial
		}
	}
}

func bnEvalGeneric(out, x []float64, spatial int, mean, inv, gamma, beta []float64) {
	for base := 0; base < len(x); {
		for c := range mean {
			mu, iv, g, b := mean[c], inv[c], gamma[c], beta[c]
			for j := base; j < base+spatial; j++ {
				out[j] = float64(g*(x[j]-mu)*iv) + b
			}
			base += spatial
		}
	}
}

func bnBackwardGeneric(dx, dy, xhat []float64, spatial int, m float64, k, sumDy, sumDyXhat []float64) {
	for base := 0; base < len(dy); {
		for c := range k {
			kc, sd, sdx := k[c], sumDy[c], sumDyXhat[c]
			for j := base; j < base+spatial; j++ {
				dx[j] = kc * (float64(m*dy[j]) - sd - float64(xhat[j]*sdx))
			}
			base += spatial
		}
	}
}
