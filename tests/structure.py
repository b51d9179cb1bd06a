"""Views of a spec and of a built model for the structural tests: one
slot of a band plan by position, and the wiring of every slot as a
string such as "dense(l=2,k=3)->lstm(m=4)"."""


def plan_slot(plan, position):
    for s in plan.slots:
        if s.position == position:
            return s
    raise KeyError("band %s has no slot %s" % (plan.name, position))


def slot_wiring(slot):
    """Sa: dense then LSTM; Sb: LSTM then dense; P: both in parallel."""
    dense_desc = None
    if slot.dense is not None:
        dense_desc = "dense(l=%d,k=%d)" % (slot.dense.layers, slot.dense.growth)
    lstm_desc = "lstm(m=%d)" % slot.lstm.units if slot.lstm is not None else None
    if dense_desc and lstm_desc:
        if slot.mode == "Sa":
            return "%s->%s" % (dense_desc, lstm_desc)
        if slot.mode == "Sb":
            return "%s->%s" % (lstm_desc, dense_desc)
        return "parallel[%s|%s]" % (dense_desc, lstm_desc)
    return dense_desc or lstm_desc


def model_wiring(model):
    """band name -> slot position -> slot_wiring, the full band as "full"."""
    return {
        net.plan.name: {s.position: slot_wiring(net._children[s.position])
                        for s in net.plan.slots}
        for net in model.band_nets + [model.full_net]
    }
