"""Closed-form parameter counts of the model's building blocks, for the
parameter audits in the tests."""


def conv_param_count(c_in, c_out, kh, kw):
    return c_in * c_out * kh * kw + c_out


def dense_block_param_count(c_in, layers, growth):
    total = 0
    for j in range(layers):
        cin_j = c_in + j * growth
        total += 2 * cin_j  # batch norm affine
        total += conv_param_count(cin_j, growth, 3, 3)
    return total


def lstm_block_param_count(c_in, f_s, units):
    m = units
    reduce_conv = conv_param_count(c_in, 1, 1, 1)
    lstm = 8 * (m * f_s + m * m + m)  # 2 directions x 4 gates x (in + rec + bias)
    back = 2 * m * f_s + f_s  # linear 2m -> f
    return reduce_conv + lstm + back
