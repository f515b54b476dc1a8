"""Policy invalidation on the baseline airplane model.

Walks the discovery loop end to end: build the model, explore the reachable
state space, show that the global policy already fails for the insider in
the initial state, and reconstruct the classic three-step escalation through
the two intermediate configurations.
"""

from insiderctl import airplane
from insiderctl.ctl import (
    check,
    describe_graph,
    encode,
    extract_trace,
    format_trace,
    reachable,
    shortest_path,
    shortest_path_via,
)
from insiderctl.formula import parse_formula


def main():
    model = airplane.build_airplane_model("baseline")
    print("== baseline airplane model ==")
    print("insider classes:", [sorted(c) for c in model.resolver.classes])
    print("initial:", describe_graph(model, model.initial))

    kripke = reachable(model)
    print(f"\nreachable states: {len(kripke.states)}")
    print(f"transitions: {sum(len(e) for e in kripke.edges)}")

    # Eve is not an airplane actor, yet impersonating the copilot makes her
    # put-enabled at the cockpit, so the global policy fails immediately.
    attack = parse_formula("EF eve_violates")
    verdict = check(kripke, attack)
    print(f"\ncheck {'{'}EF eve_violates{'}'}: {'holds' if verdict.holds else 'fails'}")
    witness = extract_trace(kripke, attack, "witness")
    print(f"witness ({len(witness)} steps, i.e. already violated initially):")
    print(format_trace(kripke, witness))

    # The danger state itself (lone copilot, door locked) sits two moves
    # away because the cabin policy is unconditional...
    target = encode(model, airplane.aid_graph())
    direct = shortest_path(kripke, frozenset({kripke.index[target]}))
    print(f"\nshortest route to the locked-out configuration: {len(direct)} steps")
    print(format_trace(kripke, direct))

    # ...while the classic narrative passes through both intermediate
    # configurations: pilot at the door, pilot in the cabin, door locked.
    via = shortest_path_via(
        kripke,
        [
            encode(model, airplane.aid_graph0()),
            encode(model, airplane.agid_graph()),
            encode(model, airplane.aid_graph()),
        ],
    )
    print(f"\nescalation through both intermediates: {len(via)} steps")
    print(format_trace(kripke, via))


if __name__ == "__main__":
    main()
