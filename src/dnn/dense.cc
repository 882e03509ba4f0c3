#include "dnn/dense.hh"

#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "dnn/gemm.hh"

namespace mindful::dnn {

DenseLayer::DenseLayer(std::size_t in_features, std::size_t out_features)
    : _in(in_features), _out(out_features)
{
    MINDFUL_ASSERT(in_features > 0 && out_features > 0,
                   "dense layer dimensions must be positive");
}

void
DenseLayer::materialize()
{
    if (!materialized()) {
        _weights.assign(_in * _out, 0.0f);
        _biases.assign(_out, 0.0f);
    }
}

std::string
DenseLayer::name() const
{
    std::ostringstream os;
    os << "dense " << _in << "->" << _out;
    return os.str();
}

Shape
DenseLayer::outputShape(const Shape &input) const
{
    MINDFUL_ASSERT(elementCount(input) == _in,
                   "dense layer expects ", _in, " inputs, got shape ",
                   toString(input));
    return {_out};
}

Tensor
DenseLayer::forward(const Tensor &input) const
{
    MINDFUL_ASSERT(input.size() == _in,
                   "dense layer expects ", _in, " inputs, got ",
                   input.size());
    MINDFUL_ASSERT(materialized(), "dense layer weights not materialized; "
                   "call initializeWeights() before forward()");
    // y = x·Wᵀ + b is the m = 1 row of the shared GEMM kernel: the
    // input is A [1 x in], the stored Wᵀ is B [in x out], and C starts
    // as a copy of the bias. Each output accumulates bias first, then
    // ascending k, so the result is bit-identical to forwardNaive().
    Tensor out(Shape{_out}, _biases);
    gemm::biasGemm(1, _out, _in, input.data(), _weights.data(),
                   out.data());
    return out;
}

Tensor
DenseLayer::forwardNaive(const Tensor &input) const
{
    MINDFUL_ASSERT(input.size() == _in,
                   "dense layer expects ", _in, " inputs, got ",
                   input.size());
    MINDFUL_ASSERT(materialized(), "dense layer weights not materialized; "
                   "call initializeWeights() before forward()");
    Tensor out(Shape{_out});
    const float *x = input.data();
    for (std::size_t r = 0; r < _out; ++r) {
        float acc = _biases[r];
        for (std::size_t c = 0; c < _in; ++c)
            acc += _weights[c * _out + r] * x[c];
        out[r] = acc;
    }
    return out;
}

MacCensus
DenseLayer::census(const Shape &input) const
{
    MINDFUL_ASSERT(elementCount(input) == _in,
                   "census input shape mismatch for ", name());
    return {static_cast<std::uint64_t>(_out),
            static_cast<std::uint64_t>(_in)};
}

std::uint64_t
DenseLayer::weightCount() const
{
    // Computed from dimensions so unmaterialized layers report their
    // true model size.
    return static_cast<std::uint64_t>(_in) * _out + _out;
}

void
DenseLayer::initializeWeights(Rng &rng)
{
    materialize();
    // Xavier-uniform: keeps activations in range through deep stacks.
    double limit = std::sqrt(6.0 / static_cast<double>(_in + _out));
    // Draw i is W[i / in][i % in], stored at Wᵀ[i % in][i / in].
    for (std::size_t r = 0; r < _out; ++r)
        for (std::size_t c = 0; c < _in; ++c)
            _weights[c * _out + r] =
                static_cast<float>(rng.uniform(-limit, limit));
    for (auto &b : _biases)
        b = 0.0f;
}

} // namespace mindful::dnn
