// Threaded dense kernels: matmul variants, row softmax, activations.
//
// These are the only hot loops in training; everything else composes them.
// Parallelism: `common::parallel_for` over output rows — each worker writes a
// disjoint row range, so no synchronization is needed inside the loops.
#pragma once

#include "nn/tensor.hpp"

namespace dart::nn::ops {

/// The three products keep one pinned rounding (DESIGN.md §6 "Training
/// kernels"): each output element starts from +0.0f and takes its terms in
/// index order. matmul and matmul_tn fuse every term
/// (common::madd); matmul_nt rounds the products of its first 4*floor(k/4)
/// terms on their own (common::mul_rounded) and fuses the last k mod 4.
/// With AVX2 the output columns sit in the SIMD lanes under 4-row register
/// tiles; the `_reference` functions are the scalar twins (the path of
/// builds without AVX2, and of the last n mod 8 columns), bit-identical.

/// C[m,n] = A[m,k] * B[k,n]. C is overwritten.
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

/// C[m,n] = A[m,k] * B[n,k]^T  (B given row-major as [n,k]).
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c);

/// C[k,n] = A[m,k]^T * B[m,n].
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c);

void matmul_reference(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_nt_reference(const Tensor& a, const Tensor& b, Tensor& c);
void matmul_tn_reference(const Tensor& a, const Tensor& b, Tensor& c);

/// y = x * W^T + b applied to every row of x: x[m, din], W[dout, din],
/// b[dout], y[m, dout]. This is the paper's Linear (Eq. 1) with the batch
/// and sequence dimensions flattened into m.
void linear_forward(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& y);

/// Row-wise softmax over the last dimension of a 2-D tensor, in place.
void softmax_rows(Tensor& x);

/// Numerically-stable sigmoid.
float sigmoid(float x);

/// Elementwise activations (out-of-place).
void relu(const Tensor& x, Tensor& y);
void sigmoid(const Tensor& x, Tensor& y);

/// dL/dx for relu: dy masked by x > 0.
void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx);

/// Cosine similarity between two equally-sized tensors (flattened).
double cosine_similarity(const Tensor& a, const Tensor& b);

}  // namespace dart::nn::ops
