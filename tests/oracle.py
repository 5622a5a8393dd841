"""Test-side oracles that share no code with the classifier."""


def closure(gens, identity, mul):
    """Identity first, then every product x*g in BFS discovery order."""
    gens = list(dict.fromkeys(gens))
    seen = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                prod = mul(x, g)
                if prod not in seen:
                    seen[prod] = None
                    nxt.append(prod)
        frontier = nxt
    return tuple(seen)
