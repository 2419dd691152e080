use std::error::Error;
use std::fmt;

use hd_quant::QuantError;
use hd_tensor::TensorError;

use crate::diag::Diagnostic;

/// Error type for model construction, execution, serialization and
/// compilation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// A layer's input dimension does not match the previous layer's
    /// output dimension.
    ShapeInference {
        /// Zero-based index of the offending layer.
        layer: usize,
        /// Dimension flowing out of the previous layer.
        expected: usize,
        /// Dimension the layer actually accepts.
        actual: usize,
    },
    /// A model must contain at least one layer.
    EmptyModel,
    /// Input batch has the wrong feature width for this model.
    InputDim {
        /// The model's input dimension.
        expected: usize,
        /// Feature width of the batch that was supplied.
        actual: usize,
    },
    /// The target accelerator cannot execute this operation.
    ///
    /// This is the typed form of the paper's observation that "Edge TPU
    /// lacks the support for element-wise operations, so the acceleration
    /// for class hypervectors update is not available": lowering a model
    /// containing an element-wise update op fails with this error, and the
    /// framework responds by scheduling that stage on the host CPU.
    UnsupportedOp {
        /// Name of the rejected operation.
        op: &'static str,
        /// Name of the compilation target.
        target: String,
    },
    /// The model's parameters exceed the target's on-chip buffer.
    ModelTooLarge {
        /// Bytes required by the model parameters.
        required: usize,
        /// Bytes available in the target's parameter buffer.
        available: usize,
    },
    /// A fully-connected layer's reduction dimension exceeds the depth at
    /// which the int8 datapath's `i32` accumulator is exact
    /// ([`hd_quant::gemm::MAX_DEPTH`]).
    AccumulatorDepth {
        /// Zero-based index of the offending layer.
        layer: usize,
        /// The layer's reduction dimension (its input width).
        depth: usize,
        /// The deepest reduction the datapath supports.
        max: usize,
    },
    /// A compilation target was described with invalid parameters.
    InvalidTarget(String),
    /// The static model-graph verifier rejected the model.
    ///
    /// Carries every error-severity [`Diagnostic`] the verifier produced,
    /// so callers can render the full structured report instead of one
    /// opaque message.
    Verification {
        /// Error-severity findings from [`crate::verify::verify_graph`].
        diagnostics: Vec<Diagnostic>,
    },
    /// Malformed or truncated serialized model data.
    Serialization(String),
    /// An internal invariant was violated. Seeing this error is a bug in
    /// the library, but hot paths propagate it instead of aborting the
    /// whole training/inference run.
    Internal(String),
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying quantization operation failed.
    Quant(QuantError),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeInference {
                layer,
                expected,
                actual,
            } => write!(
                f,
                "shape inference failed at layer {layer}: expected input dim {expected}, layer accepts {actual}"
            ),
            NnError::EmptyModel => write!(f, "model contains no layers"),
            NnError::InputDim { expected, actual } => {
                write!(f, "input has {actual} features, model expects {expected}")
            }
            NnError::UnsupportedOp { op, target } => {
                write!(f, "operation {op} is not supported by target {target}")
            }
            NnError::ModelTooLarge {
                required,
                available,
            } => write!(
                f,
                "model parameters need {required} bytes, target buffer holds {available}"
            ),
            NnError::AccumulatorDepth { layer, depth, max } => write!(
                f,
                "layer {layer} reduces over {depth} inputs, but the int8 datapath's i32 accumulator is exact only up to {max}"
            ),
            NnError::InvalidTarget(msg) => write!(f, "invalid target spec: {msg}"),
            NnError::Verification { diagnostics } => {
                write!(f, "model verification failed with {} error(s)", diagnostics.len())?;
                for d in diagnostics {
                    write!(f, "\n{d}")?;
                }
                Ok(())
            }
            NnError::Serialization(msg) => write!(f, "serialization error: {msg}"),
            NnError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::Quant(e) => write!(f, "quantization error: {e}"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            NnError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl From<QuantError> for NnError {
    fn from(e: QuantError) -> Self {
        NnError::Quant(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = NnError::ShapeInference {
            layer: 1,
            expected: 10,
            actual: 12,
        };
        assert!(e.to_string().contains("layer 1"));
        assert!(NnError::EmptyModel.to_string().contains("no layers"));
        let e = NnError::UnsupportedOp {
            op: "elementwise-add",
            target: "tpu-sim".into(),
        };
        assert!(e.to_string().contains("elementwise-add"));
        let e = NnError::ModelTooLarge {
            required: 100,
            available: 50,
        };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn sources_chain() {
        let e: NnError = TensorError::EmptyDimension { op: "x" }.into();
        assert!(e.source().is_some());
        let e: NnError = QuantError::EmptyCalibration.into();
        assert!(e.source().is_some());
        assert!(NnError::EmptyModel.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
