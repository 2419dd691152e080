/// A weight-stationary systolic array of int8 multiply-accumulate
/// processing elements.
///
/// The array holds one `rows x cols` weight tile at a time; input rows are
/// pumped through it ("efficiently reuses all the inputs by pumping them
/// through each processing element" — the paper's description of the MXU,
/// after Kung). Larger layers are decomposed into
/// `ceil(k / rows) * ceil(n / cols)` tiles; each tile pass streams the full
/// batch plus a pipeline fill/drain of `rows + cols` cycles.
///
/// The array only models *time*. Cycle counts depend on layer shapes
/// alone, never on the data, so the device computes every output with the
/// shared int8 kernel ([`wide_nn::QuantizedModel::run_quantized`]) and
/// charges these formulas for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
}

impl SystolicArray {
    /// Creates an array of `rows x cols` processing elements.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        SystolicArray { rows, cols }
    }

    /// Array height (reduction dimension per tile).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array width (output dimension per tile).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tiles needed along the reduction dimension for a `k`-deep layer.
    pub fn tiles_k(&self, k: usize) -> usize {
        k.div_ceil(self.rows)
    }

    /// Tiles needed along the output dimension for an `n`-wide layer.
    pub fn tiles_n(&self, n: usize) -> usize {
        n.div_ceil(self.cols)
    }

    /// Cycles to stream a `batch`-row input through a `k x n` layer with
    /// weights already resident: every tile pass costs the batch length
    /// plus pipeline fill and drain.
    pub fn stream_cycles(&self, batch: usize, k: usize, n: usize) -> u64 {
        let tiles = (self.tiles_k(k) * self.tiles_n(n)) as u64;
        tiles * (batch as u64 + self.rows as u64 + self.cols as u64)
    }

    /// Cycles to shift a `k x n` layer's weights into the array (one tile
    /// row per cycle), charged at model-load time.
    pub fn weight_load_cycles(&self, k: usize, n: usize) -> u64 {
        let tiles = (self.tiles_k(k) * self.tiles_n(n)) as u64;
        tiles * self.rows as u64
    }

    /// Cycles for the activation unit to process `elements` values,
    /// `cols` lanes wide.
    pub fn activation_cycles(&self, elements: usize) -> u64 {
        (elements as u64).div_ceil(self.cols as u64)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Device, DeviceConfig};
    use hd_quant::QuantizedMatrix;
    use hd_tensor::rng::DetRng;
    use hd_tensor::Matrix;
    use wide_nn::{compile, Activation, ModelBuilder, QuantStage, QuantizedModel, TargetSpec};

    /// Centred `i64` accumulators `Σ_p (q[i, p] - z) · w(p, j)` of a
    /// `k x n` weight matrix, row-major.
    fn centred(
        q: &QuantizedMatrix,
        (k, n): (usize, usize),
        w: impl Fn(usize, usize) -> i64,
    ) -> Vec<i64> {
        let z = i64::from(q.params().zero_point());
        (0..q.rows() * n)
            .map(|idx| {
                (0..k)
                    .map(|p| (i64::from(q.row(idx / n)[p]) - z) * w(p, idx % n))
                    .sum()
            })
            .collect()
    }

    /// An independent scalar model of the int8 datapath: centred products
    /// accumulated in `i64`, no shared GEMM kernel.
    pub(crate) fn scalar_reference(model: &QuantizedModel, batch: &Matrix) -> Matrix {
        let mut current = model.quantize_input(batch).unwrap();
        for stage in model.stages() {
            let m = current.rows();
            current = match stage {
                QuantStage::FullyConnected {
                    weights,
                    out_params,
                } => {
                    let zb = i64::from(weights.params().zero_point());
                    let scale = current.params().scale() * weights.params().scale();
                    let w = |p: usize, j: usize| i64::from(weights.row(p)[j]) - zb;
                    let data = centred(&current, weights.shape(), w)
                        .into_iter()
                        .map(|acc| {
                            out_params.requantize_accumulator(i32::try_from(acc).unwrap(), scale)
                        })
                        .collect();
                    QuantizedMatrix::from_raw(m, weights.cols(), data, *out_params)
                }
                QuantStage::FullyConnectedPerChannel {
                    weights,
                    out_params,
                } => {
                    let (sa, n) = (current.params().scale(), weights.cols());
                    let w = |p: usize, j: usize| i64::from(weights.row(p)[j]);
                    let acc = centred(&current, (weights.rows(), n), w);
                    let real = acc.iter().enumerate();
                    let real = real.map(|(idx, &a)| sa * weights.scales()[idx % n] * a as f32);
                    QuantizedMatrix::quantize(
                        &Matrix::from_vec(m, n, real.collect()).unwrap(),
                        *out_params,
                    )
                }
                QuantStage::Lut(lut) => {
                    let mut data = current.as_slice().to_vec();
                    lut.apply_slice(&mut data);
                    QuantizedMatrix::from_raw(m, current.cols(), data, lut.output_params())
                }
            };
        }
        current.dequantize()
    }

    /// Runs an `n -> d -> k` tanh network through a device with an
    /// `edge x edge` array, per-tensor and per-channel, on inputs shifted
    /// off zero so the activations carry nonzero zero points. The output
    /// must equal the scalar reference bit for bit, and the cycles must
    /// equal the tile-pass formula computed here by hand.
    fn check_device_datapath((n, d, k): (usize, usize, usize), batch: usize, edge: usize) {
        let mut rng = DetRng::new(40);
        let model = ModelBuilder::new(n)
            .fully_connected(Matrix::random_normal(n, d, &mut rng))
            .unwrap()
            .activation(Activation::Tanh)
            .fully_connected(Matrix::random_normal(d, k, &mut rng))
            .unwrap()
            .build()
            .unwrap();
        let shifted = |rows: usize, rng: &mut DetRng| {
            Matrix::random_normal(rows, n, rng).map(|v| 0.05 * v + 0.02)
        };
        let (calib, inputs) = (shifted(24, &mut rng), shifted(batch, &mut rng));
        let target = TargetSpec::new("test-array", edge, edge, 1 << 20);
        let cfg = DeviceConfig {
            target: target.clone(),
            ..DeviceConfig::default()
        };
        let compilers: [fn(&_, &_, &_) -> _; 2] = [compile::compile, compile::compile_per_channel];
        for (per_channel, compile_with) in compilers.into_iter().enumerate() {
            let compiled = compile_with(&model, &calib, &target).unwrap();
            let q = compiled.quantized().clone();
            let QuantStage::Lut(hidden) = &q.stages()[1] else {
                panic!("expected the tanh stage");
            };
            assert_ne!(q.input_params().zero_point(), 0, "input zero point");
            assert_ne!(hidden.output_params().zero_point(), 0, "hidden zero point");

            let device = Device::new(cfg.clone());
            device.load_model(compiled).unwrap();
            let (out, stats) = device.invoke(&inputs).unwrap();
            assert_eq!(
                out,
                scalar_reference(&q, &inputs),
                "per_channel={per_channel}"
            );
            // Tile passes of (batch + fill + drain) per layer, plus the
            // activation unit `edge` lanes wide.
            let tiles = |k: usize, n: usize| (k.div_ceil(edge) * n.div_ceil(edge)) as u64;
            let pass = (batch + 2 * edge) as u64;
            let lut = ((batch * d) as u64).div_ceil(edge as u64);
            assert_eq!(
                stats.compute_cycles,
                (tiles(n, d) + tiles(d, k)) * pass + lut
            );
        }
    }

    #[test]
    fn tiled_execution_matches_reference_kernel_bit_exact() {
        // A 16x16 array makes every layer multi-tile with ragged tails:
        // 130 = 8*16 + 2 inputs, 200 = 12*16 + 8 hidden, 7 outputs.
        check_device_datapath((130, 200, 7), 37, 16);
    }

    #[test]
    fn single_tile_execution_matches_reference() {
        check_device_datapath((10, 48, 5), 3, 64);
    }

    #[test]
    fn tile_counts() {
        let a = SystolicArray::new(64, 64);
        assert_eq!(a.tiles_k(1), 1);
        assert_eq!(a.tiles_k(64), 1);
        assert_eq!(a.tiles_k(65), 2);
        assert_eq!(a.tiles_n(640), 10);
    }

    #[test]
    fn stream_cycles_formula() {
        let a = SystolicArray::new(64, 64);
        // 128x128 layer = 2x2 tiles; batch 100: 4 * (100 + 128) cycles.
        assert_eq!(a.stream_cycles(100, 128, 128), 4 * 228);
    }

    #[test]
    fn weight_load_cycles_formula() {
        let a = SystolicArray::new(64, 32);
        // 128x64 layer = 2x2 tiles; 4 tiles * 64 rows.
        assert_eq!(a.weight_load_cycles(128, 64), 4 * 64);
    }

    #[test]
    fn activation_cycles_round_up() {
        let a = SystolicArray::new(64, 64);
        assert_eq!(a.activation_cycles(0), 0);
        assert_eq!(a.activation_cycles(1), 1);
        assert_eq!(a.activation_cycles(64), 1);
        assert_eq!(a.activation_cycles(65), 2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dims_rejected() {
        let _ = SystolicArray::new(0, 8);
    }

    #[test]
    fn more_tiles_means_more_cycles() {
        let small = SystolicArray::new(8, 8);
        let big = SystolicArray::new(64, 64);
        assert!(small.stream_cycles(10, 128, 128) > big.stream_cycles(10, 128, 128));
    }
}
