"""repro — reproduction of Keller, Fischer & Effelsberg (ICDCS 1994):
"Implementing Movie Control, Access and Management — from a Formal Description
to a Working Multimedia System".

Subpackages
-----------
``repro.estelle``
    The Estelle (ISO 9074) formal-description framework: FSM modules,
    channels, attributes and static semantics.
``repro.estelle.frontend``
    The Estelle *text* front-end: tokenizer, recursive-descent parser and
    semantic lowering compiling ``.estelle`` sources (the paper's "formal
    description") into validated specifications, with source-located
    syntax/semantic diagnostics.
``repro.runtime``
    The parallel runtime the paper's code generator would emit: schedulers,
    dispatch strategies, module-to-processor mappings, and the executor.
``repro.runtime.codegen``
    The optimizing code generator: per-(state, interaction) flattened
    transition tables and precompiled guard closures emitted as specialized
    Python selection functions (the ``"generated"`` dispatch strategy).
``repro.sim``
    Simulated hardware: event scheduler, multiprocessor machines (the KSR1
    stand-in), datagram networks and metrics.
``repro.asn1``
    ASN.1 type system and BER encoding for MCAM PDUs.
``repro.osi``
    OSI upper layers: transport pipe, session, presentation, ACSE and the
    hand-coded ISODE-style interface.
``repro.directory``
    The X.500-style movie directory (DSA/DUA).
``repro.equipment``
    Continuous-media equipment control (ECA/EUA, simulated devices).
``repro.stream``
    The XMovie stream service: movies, the Movie Transmission Protocol,
    jitter buffering and QoS monitoring.
``repro.mcam``
    The paper's core contribution: the MCAM service, PDUs, agents, client and
    server entities, the full Estelle specification and the high-level API.
``repro.harness``
    Plain-text result tables for the examples.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
