"""A census of moduli components for small genus and order, via braid-move
orbits of monodromy tuples."""
from abelpell import component_count, enumerate_m
from abelpell.components import key_to_tuple

print("g  n  |M|   split  nonsplit")
for g in range(0, 3):
    for n in range(max(2, g + 1), 7):
        m = len(enumerate_m(g, n))
        if m == 0:
            continue
        split = component_count(g, n, "split").component_count
        nonsplit = component_count(g, n, "nonsplit").component_count
        print(f"{g}  {n}  {m:4d}  {split:5d}  {nonsplit:8d}")

print("\nrepresentatives for (g, n) = (1, 3), split:")
cert = component_count(1, 3, "split")
for key, size in zip(cert.representatives, cert.orbit_sizes):
    sigma, *middles, tau = key_to_tuple(key, cert.n)
    print(f"  orbit of size {size}: sigma={sigma}, middles={tuple(middles)}, tau={tau}")
